"""Golden outputs: every shipped config run through the CLI in-process.

Each case's exit code and the sha256 of its stdout are compared with a
table recorded from the program, so a change that claims byte-identical
output (a deletion, a refactor) is held to it.  The cases are ``ptm``,
``characterize --shots 500 --seed 3`` and ``characterize --shots 0`` (the
full report, exact) on every channel config, ``deconvolve --config`` on
every channel config with an observable and a measurement file written
here, and ``experiment`` on every experiment config, as shipped and with
``--shots 2048 --seed 1`` under each sampling method (the config copied
to a temp file with ``"sampling"`` set).  Stderr is not compared: a
warning may be added without changing stdout.
"""

import contextlib
import hashlib
import importlib
import io
import json
import pathlib

import pytest

from noisedeconv.cli import main
from noisedeconv.sampling import SAMPLING_METHODS

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
CHANNELS = sorted((CONFIG_DIR / "channels").glob("*.json"))
EXPERIMENTS = sorted((CONFIG_DIR / "experiments").glob("*.json"))

# (command, config stem) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("ptm", "amp_damp_corr"): (0, "7f5c2a7b8acee91dd725de54ba2270896a1232e8842331d5166ceaa6cd7c810a"),
    ("ptm", "amp_damp_corr_unital"): (0, "7f1b64f8a27de58c2b4383792257e60147609c461c6061b9bed37495b66925c9"),
    ("ptm", "bit_flip_n1"): (0, "684134d766781ae46b620b7e9814d353e36c583e60d04dc5642b945bc23aa2a3"),
    ("ptm", "bit_flip_n2_correlated"): (0, "41013ff404fba7ff4ba1db083305b68914db877e404ab15010113b18e0c5d049"),
    ("ptm", "bit_flip_n3_correlated"): (0, "22fe51b14fe671262defda43212b0a4e6fd3fbbeace65f60ea23fe77cf2e2486"),
    ("ptm", "dephasing_n2"): (0, "c49335663b0d07dfd260f5f1c77f6527dcc327e1ffd4707c68b936581d55a33e"),
    ("ptm", "depolarizing_n1"): (0, "30ebd167f411da932a12a033ff131e96a0da94b58c5dcdb27379d15cbe1b15de"),
    ("ptm", "depolarizing_n3_fig2"): (0, "ece958e1307b563178f67ec66cf287a73415a719300b797b61cdd6d4a446e655"),
    ("ptm", "pauli_custom_n1"): (0, "002ebaf1a6be75cfaccdc9fbc45b149e78c6d16d71d678acbd946680f7bf3843"),
    ("characterize", "amp_damp_corr"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("characterize", "amp_damp_corr_unital"): (0, "181b9ad6f84be8c61374074685be6622bad0bf39e9db22544d6ff9d1f0e3b69a"),
    ("characterize", "bit_flip_n1"): (0, "25d700af22b19832abda32564dfd07b711f682730ca0b6ba719761aa606b526a"),
    ("characterize", "bit_flip_n2_correlated"): (0, "cbfcfa5435b758247795f08415fb8b7e07a81e1c2ea346b5edeee374458eea00"),
    ("characterize", "bit_flip_n3_correlated"): (0, "47ca718290acf604977ad15a6833b1857b0a54fdf50778127067a15cf1d5f6a1"),
    ("characterize", "dephasing_n2"): (0, "a175ab2872d1fc97644d5e2f28a2c8f3e531cf09b60a6028cc8672d835d23ca7"),
    ("characterize", "depolarizing_n1"): (0, "fc70bf5e2d4e224003d462387f48c4fb3951e0e567fe3f2db913bdaf8bb6860c"),
    ("characterize", "depolarizing_n3_fig2"): (0, "f405e73e7b7bcb1f06fa71c0487694189054c3334f0ccaa3a03c19da49f44086"),
    ("characterize", "pauli_custom_n1"): (0, "e28f082f437183c7d60ab8ca96038d0bb5bc191789ae0590834d6fa3abfae076"),
    ("characterize-exact", "amp_damp_corr"): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("characterize-exact", "amp_damp_corr_unital"): (0, "6867a4c68812c5c28e3a50d2c7c69ffd078b06e38c7f1c83c340dd3217afa1bb"),
    ("characterize-exact", "bit_flip_n1"): (0, "c70124c9864fa3ff9dce2b1a2502341a26aa2a3ab76580a249edace816107e40"),
    ("characterize-exact", "bit_flip_n2_correlated"): (0, "a1576241e45bc964adfa0021f13c3e954905fbbc3a477636d51a90b5e1a8d709"),
    ("characterize-exact", "bit_flip_n3_correlated"): (0, "b26531ac11ba23fbcd66a585abf57b4473539ce82bc8fa00b60adbd2811fdcdc"),
    ("characterize-exact", "dephasing_n2"): (0, "e227abd988b6212af98a715af27fd24c1b8e2a9e1175b246fc053df9f8634c9d"),
    ("characterize-exact", "depolarizing_n1"): (0, "0680085f5710afafdcf471aab55f937d8d16035ffae9abdacaeb06a22e9ba904"),
    ("characterize-exact", "depolarizing_n3_fig2"): (0, "f1d8ae5ab4ad1af4852a7d2ce74615f6fa1982c197aff5d6a05c8d94780361ba"),
    ("characterize-exact", "pauli_custom_n1"): (0, "ef2848ce4a6e68ee2ec70dd8c511860940534b7aa5962336f5b8f17939d95bc0"),
    ("deconvolve", "amp_damp_corr"): (0, "73d3ddd78c43f4e2d64c7a6bdef2a04e4976c52b9f3f21c8dc468cb1c033f058"),
    ("deconvolve", "amp_damp_corr_unital"): (0, "03defe0bb2b64b302e72ee6d53f85720b9bab852a002d2976047f8d831b52af1"),
    ("deconvolve", "bit_flip_n1"): (0, "731f9ea31d0440dc7396573a9031d6629bdec256f336a225e044b024ec1d70fa"),
    ("deconvolve", "bit_flip_n2_correlated"): (0, "8ae875c15fcf18c98b81117ca03cc54839fc3a6d68c350e8db32c15c9c63bb6c"),
    ("deconvolve", "bit_flip_n3_correlated"): (0, "1ca07d1ee89cf557cd63e5c0fc0cf5d74d26c8160ad8d1ffe45e9a771c765aca"),
    ("deconvolve", "dephasing_n2"): (0, "872c9e356cc90dd556705617399dad7ffd3aebd649575f39633402d138497954"),
    ("deconvolve", "depolarizing_n1"): (0, "99524132c2fea33140c5a41076716e7de2cc67a77f1ede073ee471f391589fdb"),
    ("deconvolve", "depolarizing_n3_fig2"): (0, "38e0b229eb58c08de6269a335bcfd8782a1420ccb7ee9dd8d7c6d4aff4240f61"),
    ("deconvolve", "pauli_custom_n1"): (0, "17b108414c99ecdb2435400287b3405ad3dfa7d88cf582a0dabe56c7ac82ec26"),
    ("experiment", "amp_damp_zz"): (0, "394c652753eb7560d1c6a4f23f307eb615e094f673104304e10da19d35dc258d"),
    ("experiment", "fig2a_mu_sweep"): (0, "354b5920ad486107904b484bf49128a68a8b50ab41e20ad92fc45701501ea168"),
    ("experiment", "fig2b_deconvolution"): (0, "0434a25da1df24e4c1863e90cd8de859affc292a4114bd2c77a4261e39c0c5e7"),
    ("experiment", "fig2b_exact"): (0, "afe5f475f77e1d6098f0590fc1a5d2d38d997c3252bd107f56b0af47ed47d38c"),
    ("experiment-marginal", "amp_damp_zz"): (0, "14626b73d4ada86b86b56836307054a39018d05b5d9a3d452a0e72048edce99b"),
    ("experiment-marginal", "fig2a_mu_sweep"): (0, "7e04819fa1c3dc5cb4939b9ba5cc23866f18b5e8a008a5363b4a6c2b7052208e"),
    ("experiment-marginal", "fig2b_deconvolution"): (0, "c4dcdadf2f44ecac13bc137cf1bd9b3ed82ce13acc7e558c60ec007ef3631d6f"),
    ("experiment-marginal", "fig2b_exact"): (0, "c4dcdadf2f44ecac13bc137cf1bd9b3ed82ce13acc7e558c60ec007ef3631d6f"),
    ("experiment-projective", "amp_damp_zz"): (0, "14626b73d4ada86b86b56836307054a39018d05b5d9a3d452a0e72048edce99b"),
    ("experiment-projective", "fig2a_mu_sweep"): (0, "8946f80f56c20982ac714e5932c04260e410f5aeb1313f588f470c764e13994f"),
    ("experiment-projective", "fig2b_deconvolution"): (0, "1b49f7a0ec6564c1a5abe6b4c5ad2224b8603e513f1704f67a1d2ceb514a9fa1"),
    ("experiment-projective", "fig2b_exact"): (0, "1b49f7a0ec6564c1a5abe6b4c5ad2224b8603e513f1704f67a1d2ceb514a9fa1"),
}


def _label(k, n):
    return "".join("IXYZ"[(k >> 2 * (n - 1 - q)) & 3] for q in range(n))


def _deconvolve_inputs(tmp_path, n):
    """An observable of three terms and one measurement row per Pauli string
    on n qubits, with values fixed by the index alone."""
    obs = tmp_path / "obs.txt"
    obs.write_text(f"{'Z' * n} 1.0\n{'X' * n} 0.5\n{'Y' + 'I' * (n - 1)} -0.25\n")
    meas = tmp_path / "meas.txt"
    meas.write_text("".join(
        f"{_label(j, n)} {((37 * j) % 101) / 101 - 0.5:.6f} {0.001 * (1 + j % 7):.4f}\n"
        for j in range(4**n)))
    return ["--observable", str(obs), "--measurements", str(meas)]


def _n(path):
    return json.loads(path.read_text()).get("n", 2)  # amp_damp_corr is fixed at n = 2


CASES = (
    [("ptm", p) for p in CHANNELS]
    + [("characterize", p) for p in CHANNELS]
    + [("characterize-exact", p) for p in CHANNELS]
    + [("deconvolve", p) for p in CHANNELS]
    + [("experiment", p) for p in EXPERIMENTS]
    + [(f"experiment-{method}", p) for method in SAMPLING_METHODS for p in EXPERIMENTS]
)


def run_case(command, path, tmp_path):
    """Exit code and sha256 of stdout of one golden case."""
    if command.startswith("experiment-"):
        cfg = dict(json.loads(path.read_text()), sampling=command.split("-", 1)[1])
        path = tmp_path / path.name
        path.write_text(json.dumps(cfg))
    argv = [command.split("-", 1)[0], "--config", str(path)]
    if command == "characterize":
        argv += ["--shots", "500", "--seed", "3"]
    elif command == "characterize-exact":
        argv += ["--shots", "0"]
    elif command.startswith("experiment-"):
        argv += ["--shots", "2048", "--seed", "1"]
    elif command == "deconvolve":
        argv += _deconvolve_inputs(tmp_path, _n(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command, path", CASES, ids=[f"{c}-{p.stem}" for c, p in CASES])
def test_output_matches_the_recorded_table(command, path, tmp_path):
    assert run_case(command, path, tmp_path) == GOLDEN[(command, path.stem)]


def test_table_covers_every_case():
    assert set(GOLDEN) == {(c, p.stem) for c, p in CASES}


@pytest.mark.parametrize("module", ["channels", "characterization", "deconvolution", "pauli",
                                    "sampling", "simulator"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"noisedeconv.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
