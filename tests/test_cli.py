import argparse
import contextlib
import errno
import io
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import markov_lambda_exact
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noisedeconv
from noisedeconv import channels, cli, pauli, simulator
from noisedeconv.channels import MAX_QUBITS_SPARSE
from noisedeconv.cli import main
from noisedeconv.exceptions import IllConditionedWarning

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
PAULI_CHANNELS = [p for p in sorted((CONFIG_DIR / "channels").glob("*.json"))
                  if json.loads(p.read_text())["family"] != "amp_damp_corr"]


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


def channel_json(tmp_path, name="ch.json", **cfg):
    return write(tmp_path, name, json.dumps(cfg))


def count_probes(monkeypatch):
    """The k of every probe output characterization reads, in order."""
    probes = []
    original = noisedeconv.characterization._probe_outputs

    def counting(ch, ks):
        output = original(ch, ks)
        return lambda k, js: probes.append(k) or output(k, js)

    monkeypatch.setattr("noisedeconv.characterization._probe_outputs", counting)
    return probes


class TestPtmCommand:
    def test_bit_flip_diagonal(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.1)
        assert main(["ptm", "--config", cfg, "--diagonal-only"]) == 0
        out = capsys.readouterr().out
        assert out == "k,lambda\n0,1.0\n1,1.0\n2,0.8\n3,0.8\n"

    def test_identity_full_matrix(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.0)
        assert main(["ptm", "--config", cfg]) == 0
        rows = capsys.readouterr().out.strip().split("\n")
        M = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(M, np.eye(4))

    def test_fig2_sigma_z_cubed_entry(self, tmp_path, capsys):
        q, mu = 0.00052, 0.25
        cfg = channel_json(tmp_path, family="depolarizing", n=3, q=q, mu=mu)
        assert main(["ptm", "--config", cfg, "--diagonal-only"]) == 0
        out = capsys.readouterr().out
        last = out.strip().split("\n")[-1]
        k, lam = last.split(",")
        assert k == "63"
        ref = (1 - q) * (1 + (mu - 1) ** 2 * (q - 2) * q)
        assert float(lam) == pytest.approx(ref, abs=1e-14)

    def test_out_file_and_env_dir(self, tmp_path, capsys, monkeypatch):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.1)
        outdir = tmp_path / "outputs"
        monkeypatch.setenv("NOISEDECONV_OUT_DIR", str(outdir))
        assert main(["ptm", "--config", cfg, "--diagonal-only", "--out", "lam.csv"]) == 0
        assert (outdir / "lam.csv").read_text().startswith("k,lambda\n")

    def test_json_format(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.1)
        assert main(["ptm", "--config", cfg, "--diagonal-only", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["diagonal"] == [1.0, 1.0, 0.8, 0.8]

    def test_cap_exit_code(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="bit_flip", n=6, p=0.1)
        assert main(["ptm", "--config", cfg]) == 4

    @pytest.mark.parametrize("n", [0, 7])
    @pytest.mark.parametrize("beta", [[1.0], {"I": 1.0}])
    def test_pauli_weights_outside_qubit_range_exit_four(self, tmp_path, capsys, n, beta):
        cfg = channel_json(tmp_path, family="pauli_custom", n=n, beta=beta)
        assert main(["ptm", "--config", cfg]) == 4
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("beta, named", [
        ({"I": 0.5, "X": 0.5, "x": 0.5}, "beta label 'x' repeats 'X'"),  # wrote weights summing to 1.5
        ({"I": 0.5, "i": 0.5}, "beta label 'i' repeats 'I'"),  # was refused for summing to 0.5
    ], ids=["lower-case-x", "lower-case-i"])
    def test_a_repeated_beta_label_exits_two_naming_both(self, tmp_path, capsys, beta, named):
        cfg = channel_json(tmp_path, family="pauli_custom", n=1, beta=beta)
        assert main(["ptm", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and named in err

    @pytest.mark.parametrize("content, kind", [
        ([["family", "bit_flip"], ["n", 1], ["p", 0.1]], "array"),
        ("bit_flip", "string"), (None, "null"), (0.1, "number"),
    ])
    def test_a_config_that_is_not_an_object_exits_two_naming_its_type(self, tmp_path, capsys, content, kind):
        cfg = write(tmp_path, "ch.json", json.dumps(content))
        assert main(["ptm", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"channel config must be a JSON object, got {kind}" in err

    def test_a_beta_label_on_another_qubit_count_exits_two(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="pauli_custom", n=2, beta={"II": 0.5, "Z": 0.5})
        assert main(["ptm", "--config", cfg]) == 2
        assert "index is for n=1, expected n=2" in capsys.readouterr().err

    def test_diagonal_only_is_the_diagonal_byte_for_byte(self, tmp_path, capsys):
        beta = np.random.default_rng(4).dirichlet(np.ones(64)).tolist()
        cfg = channel_json(tmp_path, family="pauli_custom", n=3, beta=beta)
        assert main(["ptm", "--config", cfg, "--diagonal-only"]) == 0
        diag = capsys.readouterr().out.splitlines()[1:]
        assert main(["ptm", "--config", cfg]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert diag == [f"{k},{row.split(',')[k]}" for k, row in enumerate(rows)]


class TestDeconvolveCommand:
    def test_bit_flip_quarter(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.25)
        obs = write(tmp_path, "obs.txt", "Z 1.0\n")
        meas = write(tmp_path, "meas.txt", "Z 0.5\n")
        assert main(["deconvolve", "--observable", obs, "--config", cfg,
                     "--measurements", meas]) == 0
        out = capsys.readouterr().out
        assert out == "value 1.0\nstd_error 0.0\nentries_consulted 1\n"

    def test_identity_channel_echoes_sum(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.0)
        obs = write(tmp_path, "obs.txt", "Z 0.5\nX 0.25\n")
        meas = write(tmp_path, "meas.txt", "Z 0.8\nX 0.4\n")
        assert main(["deconvolve", "--observable", obs, "--config", cfg,
                     "--measurements", meas]) == 0
        out = capsys.readouterr().out
        assert f"value {0.5 * 0.8 + 0.25 * 0.4!r}" in out
        assert "entries_consulted 2" in out

    def test_std_error_propagated(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.25)
        obs = write(tmp_path, "obs.txt", "Z 1.0\n")
        meas = write(tmp_path, "meas.txt", "Z 0.5 0.01\n")
        assert main(["deconvolve", "--observable", obs, "--config", cfg,
                     "--measurements", meas]) == 0
        assert "std_error 0.02\n" in capsys.readouterr().out

    def test_characterization_report_source(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="depolarizing", n=1, q=0.2)
        report = write(tmp_path, "report.txt", "")
        assert main(["characterize", "--config", cfg, "--entries", "3",
                     "--out", report]) == 0
        obs = write(tmp_path, "obs.txt", "Z 1.0\n")
        meas = write(tmp_path, "meas.txt", "Z 0.4\n")
        assert main(["deconvolve", "--observable", obs, "--characterization", report,
                     "--measurements", meas]) == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[0].split()[1])
        assert value == pytest.approx(0.5, abs=1e-14)

    def test_non_invertible_exit_code(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="depolarizing", n=1, q=1.0)
        obs = write(tmp_path, "obs.txt", "Z 1.0\n")
        meas = write(tmp_path, "meas.txt", "Z 0.5\n")
        assert main(["deconvolve", "--observable", obs, "--config", cfg,
                     "--measurements", meas]) == 3

    def test_missing_measurement_exit_code(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.1)
        obs = write(tmp_path, "obs.txt", "Z 1.0\n")
        meas = write(tmp_path, "meas.txt", "X 0.5\n")
        assert main(["deconvolve", "--observable", obs, "--config", cfg,
                     "--measurements", meas]) == 3

    def test_parse_error_exit_code(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.1)
        obs = write(tmp_path, "obs.txt", "Z 1.0\n")
        meas = write(tmp_path, "meas.txt", "Z zéro\n")
        assert main(["deconvolve", "--observable", obs, "--config", cfg,
                     "--measurements", meas]) == 2

    # The eta = 1 preset is the identity map, given as Kraus operators: its
    # transfer matrix is diagonal, so the plan consults r entries.
    @pytest.mark.parametrize("cfg, entries", [({"eta": 0.5, "mu": 0.3}, 256),
                                              ("amp_damp_corr_unital.json", 1)])
    def test_general_channel(self, tmp_path, capsys, cfg, entries):
        if isinstance(cfg, dict):
            cfg = channel_json(tmp_path, family="amp_damp_corr", **cfg)
        else:
            cfg = str(CONFIG_DIR / "channels" / cfg)
        obs = write(tmp_path, "obs.txt", "XX 1.0\n")
        meas = write(tmp_path, "meas.txt", "XX 0.3\nYY 0.1\n")
        assert main(["deconvolve", "--observable", obs, "--config", cfg,
                     "--measurements", meas]) == 0
        assert f"entries_consulted {entries}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("cfg", [{"family": "amp_damp_corr", "eta": 5.960464477539063e-08, "mu": 0.0},
                                     {"family": "bit_flip", "n": 2, "p": 0.1}], ids=["general", "diagonal"])
    def test_empty_observable_consults_nothing(self, tmp_path, capsys, cfg):
        # eta near 0 makes the transfer matrix near-singular (condition bound
        # about 1e15): inverting it would warn, and no term needs the inverse
        cfg = channel_json(tmp_path, **cfg)
        obs = write(tmp_path, "obs.txt", "II 0.0\n")
        meas = write(tmp_path, "meas.txt", "II 1.0\n")
        assert main(["deconvolve", "--observable", obs, "--config", cfg,
                     "--measurements", meas]) == 0
        assert capsys.readouterr() == ("value 0.0\nstd_error 0.0\nentries_consulted 0\n", "")

    def test_trace_is_deconvolved_exactly_through_kraus_operators(self, tmp_path, capsys):
        cfg = str(CONFIG_DIR / "channels" / "amp_damp_corr_unital.json")
        assert main(["ptm", "--config", cfg, "--diagonal-only"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0,1.0"
        obs = write(tmp_path, "obs.txt", "II 1.0\n")
        meas = write(tmp_path, "meas.txt", "II 1.0\n")
        assert main(["deconvolve", "--observable", obs, "--config", cfg,
                     "--measurements", meas]) == 0
        assert capsys.readouterr().out == "value 1.0\nstd_error 0.0\nentries_consulted 1\n"

    @pytest.mark.parametrize("n, mode", [(10, "full"), (MAX_QUBITS_SPARSE + 1, "diagonal"), (6, "full")])
    def test_report_past_the_cap_exits_four(self, tmp_path, capsys, n, mode):
        k = 4**n - 1
        report = write(tmp_path, "report.txt", f"n {n}\nmode {mode}\n{k} {k} 0.9 0.0 0 0\n")
        obs = write(tmp_path, "obs.txt", "Z" * n + " 1.0\n")
        meas = write(tmp_path, "meas.txt", "Z" * n + " 0.5\n")
        assert main(["deconvolve", "--observable", obs, "--characterization", report,
                     "--measurements", meas]) == 4
        assert capsys.readouterr().out == ""


class TestMarkovPastTheDenseCap:
    """Markov-correlated configs plan from p and mu: deconvolve --config and
    characterize --entries K1,... run to MAX_QUBITS_SPARSE with no 4**n array,
    and every command that reads the full diagonal or more keeps its cap."""

    def test_n30_bit_flip_with_64_terms(self, tmp_path, capsys):
        n, p, mu = 30, 0.02, 0.4
        rng = np.random.default_rng(30)
        ks = sorted({int(k) for k in rng.integers(1, 4**n, size=64)})
        assert len(ks) == 64
        coeffs = rng.uniform(-1, 1, size=64).tolist()
        values = rng.uniform(-1, 1, size=64).tolist()
        label = lambda k: "".join("IXYZ"[(k >> 2 * (n - 1 - q)) & 3] for q in range(n))
        cfg = channel_json(tmp_path, family="bit_flip", n=n, p=p, mu=mu)
        obs = write(tmp_path, "obs.txt", "".join(f"{label(k)} {c!r}\n" for k, c in zip(ks, coeffs)))
        meas = write(tmp_path, "meas.txt", "".join(f"{label(k)} {x!r}\n" for k, x in zip(ks, values)))
        assert main(["deconvolve", "--observable", obs, "--config", cfg, "--measurements", meas]) == 0
        out = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert out["entries_consulted"] == "64"
        p_vec = [1 - Fraction(p), Fraction(p), 0, 0]
        weights = [Fraction(c) / markov_lambda_exact(k, n, p_vec, Fraction(mu)) for k, c in zip(ks, coeffs)]
        exact = sum(w * Fraction(x) for w, x in zip(weights, values))
        assert abs(Fraction(float(out["value"])) - exact) <= Fraction(1e-12) * sum(map(abs, weights))

    def test_n6_deconvolve_builds_no_weight_vector(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a 4**n array was built")

        for owner, name in ((channels, "correlated_pauli_weights"), (channels, "_transform_per_qubit"),
                            (pauli, "_transform_per_qubit")):
            monkeypatch.setattr(owner, name, refuse)
        cfg = channel_json(tmp_path, family="pauli_custom", n=6, p_vec=[0.9, 0.05, 0.03, 0.02], mu=0.3)
        obs = write(tmp_path, "obs.txt", "ZZZZZZ 1.0\nXIIIIY 0.5\n")
        meas = write(tmp_path, "meas.txt", "ZZZZZZ 0.5\nXIIIIY 0.25\n")
        assert main(["deconvolve", "--observable", obs, "--config", cfg, "--measurements", meas]) == 0
        assert "entries_consulted 2\n" in capsys.readouterr().out

    @pytest.mark.parametrize("family, strength", [("bit_flip", "p"), ("dephasing", "p"), ("depolarizing", "q")])
    @pytest.mark.parametrize("command", [["ptm"], ["ptm", "--diagonal-only"], ["characterize"], ["experiment"]])
    def test_dense_commands_past_six_qubits_exit_four(self, tmp_path, capsys, family, strength, command):
        n = 7
        channel = {"family": family, "n": n, strength: 0.1, "mu": 0.5}
        if command[0] == "experiment":  # a matrix state keeps the dense cap; a preset runs past it
            mixed = (np.eye(2**n) / 2**n).tolist()
            cfg = channel_json(tmp_path, n=n, channel=channel, observable=[["Z" * n, 1.0]], m_max=1,
                               initial_state=mixed)
        else:
            cfg = channel_json(tmp_path, **channel)
        assert main([command[0], "--config", cfg, *command[1:]]) == 4
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cfg", [{"family": "bit_flip", "p": 0.1}, {"family": "depolarizing", "q": 0.1},
                                     {"family": "pauli_custom", "p_vec": [0.7, 0.1, 0.1, 0.1], "mu": 0.2}])
    def test_deconvolve_past_the_sparse_cap_exits_four(self, tmp_path, capsys, cfg):
        n = MAX_QUBITS_SPARSE + 1
        path = channel_json(tmp_path, n=n, **cfg)
        obs = write(tmp_path, "obs.txt", "Z" * n + " 1.0\n")
        meas = write(tmp_path, "meas.txt", "Z" * n + " 0.5\n")
        assert main(["deconvolve", "--observable", obs, "--config", path, "--measurements", meas]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and f"1..{MAX_QUBITS_SPARSE}" in captured.err

    @pytest.mark.parametrize("n", [7, 30])
    def test_diagonal_report_past_six_qubits_deconvolves_as_its_channel(self, tmp_path, capsys, n):
        cfg = channel_json(tmp_path, family="bit_flip", n=n, p=0.05, mu=0.3)
        labels = ["X" + "I" * (n - 1), "ZZ" + "I" * (n - 2)]
        assert main(["characterize", "--config", cfg, "--entries", ",".join(labels)]) == 0
        report = write(tmp_path, "report.txt", capsys.readouterr().out)
        obs = write(tmp_path, "obs.txt", f"{labels[0]} 0.5\n{labels[1]} -1.25\n")
        meas = write(tmp_path, "meas.txt", f"{labels[0]} 0.75 0.01\n{labels[1]} 0.5 0.02\n")
        outputs = []
        for source in (["--config", cfg], ["--characterization", report]):
            assert main(["deconvolve", "--observable", obs, "--measurements", meas, *source]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and "entries_consulted 2\n" in outputs[0]


class TestCharacterizeCommand:
    def test_identity_full(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, "id.json", family="bit_flip", n=1, p=0.0)
        assert main(["characterize", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "mode full" in out
        assert "1 1 1.0 0.0 0 0" in out

    def test_depolarizing_entry(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="depolarizing", n=1, q=0.2)
        assert main(["characterize", "--config", cfg, "--entries", "Z"]) == 0
        out = capsys.readouterr().out
        row = [l for l in out.splitlines() if l.startswith("3 3")][0]
        assert float(row.split()[2]) == pytest.approx(0.8, abs=1e-12)

    def test_non_unital_exit_code(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="amp_damp_corr", eta=0.5, mu=0.0)
        assert main(["characterize", "--config", cfg]) == 3

    def test_repeated_entries_probe_once(self, capsys, monkeypatch):
        cfg = str(CONFIG_DIR / "channels" / "bit_flip_n1.json")
        assert main(["characterize", "--config", cfg, "--entries", "3"]) == 0
        single = capsys.readouterr().out
        probes = count_probes(monkeypatch)
        assert main(["characterize", "--config", cfg, "--entries", "3,3,Z"]) == 0
        assert len(probes) == 1
        assert capsys.readouterr().out == single

    def test_full_report_past_the_cap_exits_four_before_any_probe(self, tmp_path, capsys, monkeypatch):
        cfg = channel_json(tmp_path, family="bit_flip", n=6, p=0.1)
        probes = count_probes(monkeypatch)
        assert main(["characterize", "--config", cfg, "--entries", "full"]) == 4
        assert capsys.readouterr().out == "" and probes == []
        assert main(["characterize", "--config", cfg, "--entries", "4095"]) == 0  # diagonal mode stays allowed
        assert capsys.readouterr().out.splitlines()[3].startswith("4095 4095 ")
        assert len(probes) == 1

    def test_label_must_span_every_qubit(self, capsys):
        cfg = str(CONFIG_DIR / "channels" / "depolarizing_n3_fig2.json")
        assert main(["characterize", "--config", cfg, "--entries", "ZZ"]) == 2
        assert "expected n=3" in capsys.readouterr().err
        assert main(["characterize", "--config", cfg, "--entries", "IZZ"]) == 0
        assert capsys.readouterr().out.splitlines()[3].startswith("15 15 ")

    @pytest.mark.parametrize("extra", [[], ["--shots", "500", "--seed", "3"]], ids=["exact", "sampled"])
    @pytest.mark.parametrize("path", sorted((CONFIG_DIR / "channels").glob("*.json")), ids=lambda p: p.stem)
    def test_diagonal_report_is_the_full_reports_diagonal(self, capsys, path, extra):
        n = json.loads(path.read_text()).get("n", 2)
        every_k = ",".join(map(str, range(1, 4**n)))
        full_rc = main(["characterize", "--config", str(path), "--entries", "full", *extra])
        full = capsys.readouterr().out.splitlines()
        assert main(["characterize", "--config", str(path), "--entries", every_k, *extra]) == full_rc
        diagonal = capsys.readouterr().out.splitlines()
        if full_rc == 0:  # amp_damp_corr is not unital: both refuse it
            assert diagonal[3:] == [row for row in full[3:] if row.split()[0] == row.split()[1] != "0"]

    @pytest.mark.parametrize("path", PAULI_CHANNELS, ids=lambda p: p.stem)
    def test_exact_diagonal_report_is_the_channels_lambdas(self, tmp_path, capsys, path):
        ch = noisedeconv.channel_from_config(json.loads(path.read_text()))
        every_k = ",".join(map(str, range(1, 4**ch.n)))
        assert main(["characterize", "--config", str(path), "--entries", every_k]) == 0
        report = noisedeconv.CharacterizedPTM.from_report_text(capsys.readouterr().out)
        # lambda_0 = 1 comes from trace preservation, in the report and in the channel
        assert report.lambdas()[0] == ch.lambdas()[0] == 1.0
        assert list(report.lambdas().values()) == ch.lambdas().tolist()
        # so a deconvolution from the report is the one from the channel, byte for byte
        report_path = write(tmp_path, "report.txt", report.to_report_text())
        obs = write(tmp_path, "obs.txt", f"{'Z' * ch.n} 1.0\n{'X' * ch.n} 0.5\n")
        meas = write(tmp_path, "meas.txt", f"{'Z' * ch.n} 0.7 0.01\n{'X' * ch.n} 0.6 0.02\n")
        outputs = []
        for source in (["--config", str(path)], ["--characterization", report_path]):
            assert main(["deconvolve", "--observable", obs, "--measurements", meas, *source]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("path", PAULI_CHANNELS, ids=lambda p: p.stem)
    def test_exact_full_report_of_pauli_noise_plans_on_the_diagonal(self, tmp_path, capsys, path):
        # a full report took the general path (entries_consulted 16**n), and the
        # I...I weight from the channel's lambda_0 = sum(w) differed in the last bit
        n = json.loads(path.read_text())["n"]
        report = str(tmp_path / "report.txt")
        assert main(["characterize", "--config", str(path), "--entries", "full", "--out", report]) == 0
        obs = write(tmp_path, "obs.txt", f"{'I' * n} 0.5\n{'Z' * n} 1.0\n")
        meas = write(tmp_path, "meas.txt", f"{'I' * n} 1.0\n{'Z' * n} 0.7 0.01\n")
        outputs = []
        for source in (["--config", str(path)], ["--characterization", report]):
            assert main(["deconvolve", "--observable", obs, "--measurements", meas, *source]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[1].endswith("entries_consulted 2\n")

    def test_exact_full_report_of_a_unital_kraus_channel_is_its_ptm(self, capsys):
        path = CONFIG_DIR / "channels" / "amp_damp_corr_unital.json"
        ch = noisedeconv.channel_from_config(json.loads(path.read_text()))
        assert main(["characterize", "--config", str(path), "--entries", "full"]) == 0
        report = noisedeconv.CharacterizedPTM.from_report_text(capsys.readouterr().out)
        # the k = 0 row and column come from the identities, not from a probe
        assert np.array_equal(report.ptm().matrix[1:, 1:], ch.ptm().matrix[1:, 1:])


class TestExperimentCommand:
    def test_exact_mode_deconvolved_is_one(self, tmp_path, capsys):
        cfg = write(tmp_path, "exp.json", json.dumps({
            "n": 3,
            "channel": {"family": "depolarizing", "n": 3, "q": 0.00052, "mu": 0.25},
            "observable": [["ZZZ", 1.0]],
            "initial_state": "zeros",
            "m_max": 5,
            "shots": 0,
            "seed": 0,
        }))
        assert main(["experiment", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("mu,q,m,k,")
        for line in lines[1:]:
            assert abs(float(line.split(",")[8]) - 1.0) < 1e-9

    def test_byte_identical_runs(self, tmp_path, capsys):
        cfg = write(tmp_path, "exp.json", json.dumps({
            "n": 1,
            "channel": {"family": "bit_flip", "n": 1, "p": 0.05},
            "observable": [["Z", 1.0]],
            "m_max": 8,
            "shots": 4096,
            "seed": 31,
        }))
        assert main(["experiment", "--config", cfg]) == 0
        first = capsys.readouterr().out
        assert main(["experiment", "--config", cfg]) == 0
        assert capsys.readouterr().out == first

    def test_cli_overrides(self, tmp_path, capsys):
        cfg = write(tmp_path, "exp.json", json.dumps({
            "n": 1,
            "channel": {"family": "bit_flip", "n": 1, "p": 0.05},
            "observable": [["Z", 1.0]],
            "m_max": 2,
            "shots": 0,
            "seed": 0,
        }))
        assert main(["experiment", "--config", cfg, "--shots", "128", "--seed", "7"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert row[4] == "128" and row[5] == "7"

    def test_qubit_cap_is_checked_before_the_state_is_built(self, tmp_path, capsys, monkeypatch):
        n = MAX_QUBITS_SPARSE + 1
        cfg = write(tmp_path, "exp.json", json.dumps({
            "n": n,
            "channel": {"family": "depolarizing", "n": n, "q": 0.1},
            "observable": [["Z" * n, 1.0]],
            "initial_state": "plus",
        }))
        built = []
        monkeypatch.setattr("noisedeconv.simulator.preset_coefficients", lambda *args: built.append(args))
        assert main(["experiment", "--config", cfg]) == 4
        assert capsys.readouterr().out == "" and built == []

    @pytest.mark.parametrize("grids, m_max, over", [  # the most records that run, then one m more
        ({}, 9, 11), ({"mu_grid": []}, 9, 11), ({"mu_grid": [0.0, 0.5]}, 4, 12),
        ({"mu_grid": [0.0], "strength_grid": [0.1, 0.2]}, 4, 12),
    ])
    def test_records_past_the_cap_exit_four_before_any_table(self, tmp_path, capsys, monkeypatch, grids, m_max, over):
        monkeypatch.setattr(simulator, "MAX_RECORDS", 10)
        raw = {"n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.0}, "observable": [["Z", 1.0]], **grids}

        def config(m):
            return write(tmp_path, "exp.json", json.dumps({**raw, "m_max": m}))

        assert main(["experiment", "--config", config(m_max)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 10
        monkeypatch.setattr(simulator, "rescaling_weights", lambda *args: pytest.fail("a table was built"))
        assert main(["experiment", "--config", config(m_max + 1)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and f"experiment holds {over} records, above the cap of 10" in err

    @pytest.mark.parametrize("channel, kind", [([["family", "bit_flip"], ["n", 1], ["p", 0.1]], "array"),
                                               ("bit_flip", "string"), (None, "null")])
    def test_a_channel_that_is_not_an_object_exits_two_naming_its_type(self, tmp_path, capsys, channel, kind):
        cfg = write(tmp_path, "exp.json", json.dumps({"n": 1, "channel": channel, "observable": [["Z", 1.0]]}))
        assert main(["experiment", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"channel config must be a JSON object, got {kind}" in err

    def test_a_huge_state_that_is_not_psd_exits_three_without_a_warning(self, tmp_path, capsys):
        # unit trace and Hermitian; its powers overflow, which the certificate reads as a failure
        cfg = write(tmp_path, "exp.json", json.dumps({"n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.1},
                                                      "observable": [["Z", 1.0]], "m_max": 2,
                                                      "initial_state": [[0.5, 1e200], [1e200, 0.5]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["experiment", "--config", cfg]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "not positive semidefinite" in err

    def test_past_the_dense_cap_a_preset_runs_and_a_matrix_or_weight_vector_does_not(self, tmp_path, capsys):
        n = MAX_QUBITS_SPARSE
        run = {"n": n, "channel": {"family": "bit_flip", "n": n, "p": 0.05, "mu": 0.5},
               "observable": [["Z" * n, 1.0], ["IZ" * (n // 2) + "Z", 0.5]], "m_max": 2}
        assert main(["experiment", "--config", write(tmp_path, "run.json", json.dumps(run))]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 3 * 2 and all(abs(float(row[8]) - 1.0) < 1e-12 for row in rows)
        weights = {**run, "n": 7, "channel": {"family": "pauli_custom", "n": 7, "beta": {"I" * 7: 0.9, "Z" * 7: 0.1}},
                   "observable": [["Z" * 7, 1.0]]}
        assert main(["experiment", "--config", write(tmp_path, "weights.json", json.dumps(weights))]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "1..6" in captured.err

    def test_json_has_null_for_a_family_without_strength(self, tmp_path, capsys):
        cfg = write(tmp_path, "exp.json", json.dumps({
            "n": 1, "channel": {"family": "pauli_custom", "n": 1, "p_vec": [0.8, 0.1, 0.05, 0.05]},
            "observable": [["Z", 1.0]], "m_max": 2}))

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        assert main(["experiment", "--config", cfg, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert len(data) == 3 and all(d["q"] is None for d in data)
        assert list(data[0]) == ["mu", "q", "m", "k", "shots", "seed", "noisy", "noisy_stderr",
                                 "deconvolved", "deconvolved_stderr"]
        assert main(["experiment", "--config", cfg]) == 0
        assert all(line.split(",")[1] == "nan" for line in capsys.readouterr().out.splitlines()[1:])

    @pytest.mark.parametrize("overrides", [[], ["--shots", "5"], ["--seed", "3"]])
    @pytest.mark.parametrize("content", [[1, 2], "text", 7])
    def test_non_object_config_exits_two(self, tmp_path, capsys, content, overrides):
        cfg = write(tmp_path, "exp.json", json.dumps(content))
        assert main(["experiment", "--config", cfg, *overrides]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be a JSON object" in captured.err

    def test_overrides_replace_file_values_before_validation(self, tmp_path, capsys):
        cfg = write(tmp_path, "exp.json", json.dumps({
            "n": 1,
            "channel": {"family": "bit_flip", "n": 1, "p": 0.05},
            "observable": [["Z", 1.0]],
            "m_max": 1,
            "shots": -1,
            "seed": "bad",
        }))
        assert main(["experiment", "--config", cfg]) == 2
        assert main(["experiment", "--config", cfg, "--shots", "16", "--seed", "4"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert row[4] == "16" and row[5] == "4"

    @pytest.mark.parametrize("channel, terms, extra, message", [
        ({"family": "bit_flip", "n": 2, "p": 0.5}, [["ZI", 1.0]], {},
         "diagonal entry 0.0 at k=12 is not invertible"),
        ({"family": "depolarizing", "n": 2, "q": 0.5}, [["ZI", 1.0], ["XX", 1.0]], {"m_max": 1100},
         "lambda_k**(-m) overflows at k=5, m=512"),
        # sampled, at the last m whose plans all exist: the first record's error bar overflows
        ({"family": "depolarizing", "n": 2, "q": 0.5}, [["ZI", 1.0], ["XX", 1.0]],
         {"m_max": 511, "shots": 100, "seed": 3}, "propagated standard error is inf"),
    ], ids=["not-invertible", "weight-overflow", "stderr-overflow"])
    def test_refusals_exit_three_and_name_the_fault(self, tmp_path, capsys, channel, terms, extra, message):
        cfg = write(tmp_path, "exp.json", json.dumps({"n": 2, "channel": channel, "observable": terms, **extra}))
        assert main(["experiment", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_state_within_the_hermitian_tolerance_runs(self, tmp_path, capsys):
        # I/4 with 0.45e-10 i on (0, 1), (1, 0), (2, 3) and (3, 2): each entry of
        # rho - rho^dag is 0.9e-10, within HERMITIAN_TOL, and Tr[IX rho] sums four
        # of them to a residue of 1.8e-10 i, within d * HERMITIAN_TOL / 2
        state = [[[0.25 if i == j else 0.0, 0.45e-10 if {i, j} in ({0, 1}, {2, 3}) else 0.0]
                  for j in range(4)] for i in range(4)]
        cfg = write(tmp_path, "exp.json", json.dumps({
            "n": 2, "channel": {"family": "dephasing", "n": 2, "p": 0.1}, "observable": [["IX", 1.0]],
            "initial_state": state, "m_max": 1}))
        assert main(["experiment", "--config", cfg]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[8] for row in rows] == ["0.0", "0.0"]  # deconvolved <IX> of I/4

    def test_imaginary_residue_exits_three_and_names_its_term(self, tmp_path, capsys, monkeypatch):
        plus = [[[0.25, 0.0]] * 4] * 4
        cfg = write(tmp_path, "exp.json", json.dumps({
            "n": 2, "channel": {"family": "dephasing", "n": 2, "p": 0.1}, "observable": [["XX", 1.0]],
            "initial_state": plus, "m_max": 2}))
        vectorize = pauli.vectorize
        monkeypatch.setattr("noisedeconv.simulator.vectorize", lambda rho: vectorize(rho) + 1e-6j * (np.arange(16) == 5))
        assert main(["experiment", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "expectation of XX has imaginary residue 4.000e-06" in captured.err

    def test_json_rows_are_the_csv_rows(self, capsys):
        cfg = str(CONFIG_DIR / "experiments" / "fig2a_mu_sweep.json")
        assert main(["experiment", "--config", cfg, "--shots", "64", "--seed", "2"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert main(["experiment", "--config", cfg, "--shots", "64", "--seed", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [list(d) for d in data] == [header.split(",")] * len(rows)
        assert [",".join(repr(v) for v in d.values()) for d in data] == rows

    def test_amplified_weights_warn_on_stderr_and_leave_stdout(self, tmp_path):
        cfg = write(tmp_path, "exp.json", json.dumps({
            "n": 2,
            "channel": {"family": "amp_damp_corr", "eta": 0.3, "mu": 0.5},
            "observable": [["ZZ", 1.0]],
            "initial_state": "plus",
            "m_max": 27,
        }))
        src = str(pathlib.Path(noisedeconv.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "noisedeconv", "experiment", "--config", cfg],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0
        assert "IllConditionedWarning" in proc.stderr
        assert "(m = 12)" in proc.stderr and "(m = 11)" not in proc.stderr
        assert proc.stderr.count("deconvolution weights amplify") == 1
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out):
            warnings.simplefilter("ignore")
            assert main(["experiment", "--config", cfg]) == 0
        assert out.getvalue() == proc.stdout


class TestCheckPositivityCommand:
    def test_single_probe(self, capsys):
        assert main(["check-positivity", "--n", "1", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "S 1.0 1.0 0.0 PASS" in out
        assert out.endswith("ALL PASS\n")

    def test_all_probes_two_qubits(self, capsys):
        assert main(["check-positivity", "--n", "2", "--k", "all"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 16  # 15 probes + ALL PASS

    def test_crafted_non_psd_fails(self, tmp_path, capsys):
        state = write(tmp_path, "state.json", json.dumps([[1.5, 0.0], [0.0, -0.5]]))
        assert main(["check-positivity", "--state-file", state]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_all_cap(self, capsys):
        assert main(["check-positivity", "--n", "5", "--k", "all"]) == 4

    def test_all_probes_four_qubits(self, capsys):
        assert main(["check-positivity", "--n", "4", "--k", "all"]) == 0
        assert capsys.readouterr().out.endswith("ALL PASS\n")

    @pytest.mark.parametrize("n", [4, 5])
    def test_negative_eigenvalue_fails_past_three_qubits(self, tmp_path, capsys, n):
        d = 2**n
        eigenvalues = [-0.01] + [1.01 / (d - 1)] * (d - 1)
        state = write(tmp_path, "state.json", json.dumps(np.diag(eigenvalues).tolist()))
        assert main(["check-positivity", "--state-file", state]) == 3
        assert capsys.readouterr().out.endswith("FAIL\nFAILED\n")

    def test_a_huge_state_fails_without_a_warning(self, tmp_path, capsys):
        state = write(tmp_path, "state.json", json.dumps([[0.5, 1e200], [1e200, 0.5]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check-positivity", "--state-file", state]) == 3
        assert capsys.readouterr().out.endswith("S 1.0 1.0 -inf FAIL\nFAILED\n")

    def test_non_hermitian_state_fails(self, tmp_path, capsys):
        # eigvalsh reads one triangle, so the S_m and the smallest eigenvalue alone pass it
        state = write(tmp_path, "state.json", json.dumps([[0.5, 1.0], [0.0, 0.5]]))
        assert main(["check-positivity", "--state-file", state]) == 3
        assert capsys.readouterr().out.endswith("S 1.0 1.0 0.25 FAIL\nFAILED\n")


class TestOneWriter:
    @pytest.mark.parametrize("command", ["ptm", "deconvolve", "characterize", "experiment",
                                         "check-positivity"])
    def test_out_holds_the_stdout_bytes(self, tmp_path, capsys, monkeypatch, command):
        channel = str(CONFIG_DIR / "channels" / "depolarizing_n1.json")
        argv = {
            "ptm": ["ptm", "--config", channel, "--format", "json"],
            "deconvolve": ["deconvolve", "--config", channel,
                           "--observable", write(tmp_path, "obs.txt", "Z 1.0\n"),
                           "--measurements", write(tmp_path, "meas.txt", "Z 0.4 0.01\n")],
            "characterize": ["characterize", "--config", channel, "--shots", "50"],
            "experiment": ["experiment", "--config", str(CONFIG_DIR / "experiments" / "fig2b_exact.json")],
            "check-positivity": ["check-positivity", "--n", "2"],
        }[command]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        monkeypatch.setenv("NOISEDECONV_OUT_DIR", str(tmp_path))
        assert main([*argv, "--out", "sub/result.txt"]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "sub" / "result.txt").read_text() == printed

    @pytest.mark.parametrize("target", ["dir", "dir/sub/result.txt", "file/result.txt"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, target):
        (tmp_path / "dir").mkdir()
        (tmp_path / "dir" / "sub").mkdir()
        (tmp_path / "dir" / "sub" / "result.txt").mkdir()
        (tmp_path / "file").write_text("")
        assert main(["check-positivity", "--n", "1", "--out", str(tmp_path / target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"cannot write {tmp_path / target}" in captured.err

    def test_a_longer_file_is_rewritten_to_exactly_the_new_bytes(self, tmp_path, capsys):
        target = tmp_path / "result.txt"
        target.write_bytes(b"x" * 10_000)
        assert main(["check-positivity", "--n", "1", "--k", "3"]) == 0
        printed = capsys.readouterr().out
        assert main(["check-positivity", "--n", "1", "--k", "3", "--out", str(target)]) == 0
        assert target.read_bytes() == printed.encode()

    def test_dev_null_exits_zero(self, capsys):
        assert main(["check-positivity", "--n", "1", "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_a_fifo_receives_the_bytes(self, tmp_path, capsys):
        assert main(["check-positivity", "--n", "2"]) == 0
        printed = capsys.readouterr().out
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["check-positivity", "--n", "2", "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert received == [printed.encode()]

    def test_a_read_only_file_exits_two(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "result.txt"
        target.write_text("kept\n")
        target.chmod(0o444)
        if os.access(target, os.W_OK):  # a privileged user writes past the mode bits: refuse as the kernel would
            def refuse(path, *args):
                if pathlib.Path(path) == target:
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
                return os_open(path, *args)

            os_open = os.open
            monkeypatch.setattr(os, "open", refuse)
        assert main(["check-positivity", "--n", "1", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"cannot write {target}" in captured.err
        assert target.read_text() == "kept\n"

    def test_a_new_file_gets_the_mode_open_gives_it(self, tmp_path, capsys):
        target = tmp_path / "result.txt"
        umask = os.umask(0o002)  # leaves group write, which a narrower create mode would drop
        try:
            assert main(["check-positivity", "--n", "1", "--out", str(target)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~0o002

    def test_json_does_not_build_the_text(self, tmp_path, capsys, monkeypatch):
        cfg = channel_json(tmp_path, family="bit_flip", n=2, p=0.1)

        def refuse(x):
            raise AssertionError("text formatted under --format json")

        monkeypatch.setattr("noisedeconv.cli._fmt", refuse)
        assert main(["ptm", "--config", cfg, "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["matrix"]) == 16


# Each kind of number a channel config holds, set to a given value.
CHANNEL_NUMBERS = {
    "p": lambda v: {"family": "bit_flip", "n": 1, "p": v},
    "q": lambda v: {"family": "depolarizing", "n": 1, "q": v},
    "eta": lambda v: {"family": "amp_damp_corr", "eta": v},
    "mu": lambda v: {"family": "dephasing", "n": 1, "p": 0.1, "mu": v},
    "p_vec": lambda v: {"family": "pauli_custom", "n": 1, "p_vec": [0.25, 0.25, v, 0.25]},
    "beta-list": lambda v: {"family": "pauli_custom", "n": 1, "beta": [0.25, v, 0.25, 0.25]},
    "beta-map": lambda v: {"family": "pauli_custom", "n": 1, "beta": {"I": 0.75, "Z": v}},
}


class TestArgumentErrors:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_parser_is_built_once(self, monkeypatch, capsys):
        assert main(["check-positivity", "--n", "1", "--k", "3"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["check-positivity", "--n", "1", "--k", "3"]) == 0
        with pytest.raises(SystemExit) as err:
            main(["check-positivity", "--n", "one"])
        assert err.value.code == 2
        assert built == []

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.json", '{"family": "bit_flip",')
        assert main(["ptm", "--config", cfg]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, key", [
        ("ptm", '{"family": "bit_flip", "n": 1, "p": 0.1, "p": 0.3}', "p"),
        ("ptm", '{"family": "pauli_custom", "n": 1, "beta": {"X": 0.5, "X": 0.5}}', "X"),
        ("experiment", '{"n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.1, "n": 1}, '
                       '"observable": [["Z", 1.0]], "initial_state": "zeros", "m_max": 2}', "n"),
    ])
    def test_a_repeated_json_key_exits_two(self, tmp_path, capsys, command, text, key):
        cfg = write(tmp_path, "repeat.json", text)
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{cfg}: key {key!r} repeats" in captured.err

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*/*.json")), ids=lambda p: p.name)
    def test_every_shipped_config_loads(self, path):
        assert cli._load_json(str(path)) == json.loads(path.read_text())

    def test_missing_file_exits_two(self, capsys):
        assert main(["ptm", "--config", "/nonexistent/ch.json"]) == 2

    def test_negative_shots_exits_two(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.1)
        assert main(["characterize", "--config", cfg, "--shots", "-1"]) == 2

    @pytest.mark.parametrize("command", ["experiment", "characterize"])
    def test_shots_past_the_int64_maximum_exit_two(self, capsys, command):
        # numpy's binomial overflowed here: a traceback and exit 1
        cfg = CONFIG_DIR / ("experiments/fig2b_exact.json" if command == "experiment"
                            else "channels/bit_flip_n1.json")
        extra = ["--entries", "3"] if command == "characterize" else []
        assert main([command, "--config", str(cfg), *extra, "--shots", str(2**63)]) == 2
        assert f"0..{2**63 - 1}" in capsys.readouterr().err

    def test_shots_at_the_int64_maximum_run(self, capsys):
        cfg = str(CONFIG_DIR / "channels" / "bit_flip_n1.json")
        assert main(["characterize", "--config", cfg, "--entries", "3", "--shots", str(2**63 - 1)]) == 0

    def test_config_shots_past_the_maximum_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "exp.json", json.dumps({
            "n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.05},
            "observable": [["Z", 1.0]], "m_max": 1, "shots": 1e20,
        }))
        assert main(["experiment", "--config", cfg]) == 2

    def test_projective_sampling_exits_two_and_names_the_key(self, tmp_path, capsys):
        raw = {"n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.05},
               "observable": [["Z", 1.0]], "m_max": 1, "shots": 16, "sampling": "projective"}
        assert main(["experiment", "--config", write(tmp_path, "exp.json", json.dumps(raw))]) == 2
        assert "sampling must be 'marginal', got 'projective'" in capsys.readouterr().err
        raw["sampling"] = "marginal"  # what configs written for the default say
        assert main(["experiment", "--config", write(tmp_path, "exp.json", json.dumps(raw))]) == 0

    @pytest.mark.parametrize("command, raw, key", [
        ("experiment", {"n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.05},
                        "observable": [["Z", 1.0]], "m_max": 1, "shot": 100, "sed": 4}, "'sed'"),
        ("experiment", {"n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.05, "muu": 0.5},
                        "observable": [["Z", 1.0]], "m_max": 1}, "'muu'"),
        ("ptm", {"family": "bit_flip", "n": 1, "p": 0.3, "muu": 0.5}, "'muu'"),
        ("ptm", {"family": "amp_damp_corr", "eta": 0.5, "p": 0.1}, "'p'"),
        ("ptm", {"family": "pauli_custom", "n": 1, "beta": [0.9, 0.1, 0.0, 0.0], "mu": 0.5}, "'mu'"),
        ("ptm", {"family": "pauli_custom", "n": 1, "beta": [0.9, 0.1, 0.0, 0.0],
                 "p_vec": [0.9, 0.1, 0.0, 0.0]}, "'p_vec'"),
    ], ids=["experiment-key", "channel-key", "ptm-key", "amp-damp-key", "beta-with-mu", "beta-with-p_vec"])
    def test_unknown_config_key_exits_two_and_names_it(self, tmp_path, capsys, command, raw, key):
        assert main([command, "--config", write(tmp_path, "cfg.json", json.dumps(raw))]) == 2
        assert key in capsys.readouterr().err

    def test_mu_sweep_of_a_beta_channel_exits_two(self, tmp_path, capsys):
        raw = {"n": 1, "channel": {"family": "pauli_custom", "n": 1, "beta": [0.9, 0.1, 0.0, 0.0]},
               "observable": [["Z", 1.0]], "m_max": 1, "mu_grid": [0.0, 0.5]}
        assert main(["experiment", "--config", write(tmp_path, "exp.json", json.dumps(raw))]) == 2
        assert "'beta' with 'mu'" in capsys.readouterr().err
        del raw["mu_grid"]
        assert main(["experiment", "--config", write(tmp_path, "exp.json", json.dumps(raw))]) == 0

    def test_unknown_sampling_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "exp.json", json.dumps({
            "n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.05},
            "observable": [["Z", 1.0]], "m_max": 1, "shots": 16, "sampling": "bogus",
        }))
        assert main(["experiment", "--config", cfg]) == 2

    @pytest.mark.parametrize("key, value", [("n", 1.9), ("m_max", 1.7), ("shots", True), ("seed", 2.2),
                                            ("seed", "2"), ("channel", {"family": "bit_flip", "n": 1.5, "p": 0.05})])
    def test_non_integral_count_exits_two(self, tmp_path, capsys, key, value):
        raw = {"n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.05},
               "observable": [["Z", 1.0]], "m_max": 2, "shots": 0, "seed": 0}
        raw[key] = value
        cfg = write(tmp_path, "exp.json", json.dumps(raw))
        assert main(["experiment", "--config", cfg]) == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [{"family": "depolarizing", "n": 1.9, "q": 0.1},
                                     {"family": "amp_damp_corr", "n": 2.5, "eta": 0.5},
                                     {"family": "pauli_custom", "n": False, "p_vec": [1, 0, 0, 0]}])
    def test_non_integral_channel_qubit_count_exits_two(self, tmp_path, capsys, cfg):
        assert main(["ptm", "--config", channel_json(tmp_path, **cfg)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", [True, "0.25"], ids=["bool", "string"])
    @pytest.mark.parametrize("kind", CHANNEL_NUMBERS)
    def test_channel_number_given_as_bool_or_string_exits_two(self, tmp_path, capsys, kind, value):
        # "p": true built a full bit flip and "p": "0.25" was read from the string, both exit 0
        assert main(["ptm", "--config", channel_json(tmp_path, **CHANNEL_NUMBERS[kind](value))]) == 2
        assert "must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "string"])
    @pytest.mark.parametrize("key", ["mu_grid", "strength_grid", "observable", "initial_state"])
    def test_experiment_number_given_as_bool_or_string_exits_two(self, tmp_path, capsys, key, value):
        raw = {"n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.05},
               "observable": [["Z", 1.0]], "m_max": 1}
        raw[key] = {"mu_grid": [0.0, value], "strength_grid": [value], "observable": [["Z", value]],
                    "initial_state": [[value, 0.0], [0.0, 0.0]]}[key]
        assert main(["experiment", "--config", write(tmp_path, "exp.json", json.dumps(raw))]) == 2
        assert "must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("observable, message", [
        ({"ZZ": 1.0}, "observable must be a list of [pauli-string, coefficient] pairs or an "
                      "observable-format text block, got {'ZZ': 1.0}"),
        ([5], "observable entry 5 is not a [pauli-string, coefficient] pair"),
    ], ids=["mapping", "bare_number"])
    def test_malformed_observable_exits_two_naming_it(self, tmp_path, capsys, observable, message):
        # the mapping's key "ZZ" was unpacked into two letters ("coefficient must be a
        # number, got 'Z'") and [5] gave "cannot unpack non-iterable int object"
        raw = {"n": 2, "channel": {"family": "bit_flip", "n": 2, "p": 0.05},
               "observable": observable, "m_max": 1}
        assert main(["experiment", "--config", write(tmp_path, "exp.json", json.dumps(raw))]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_integral_floats_count_as_integers(self, tmp_path, capsys):
        raw = {"n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.05},
               "observable": [["Z", 1.0]], "m_max": 2, "shots": 64, "seed": 3}
        outputs = []
        for value in (raw, {**raw, "n": 1.0, "channel": {**raw["channel"], "n": 1.0},
                            "m_max": 2.0, "shots": 64.0, "seed": 3.0}):
            assert main(["experiment", "--config", write(tmp_path, "exp.json", json.dumps(value))]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("source", ["measurements", "report"])
    def test_repeated_row_exits_two(self, tmp_path, capsys, source):
        # the last of two rows used to win: value 0.9, and 0.4 / 0.2 = 2.0 from the report
        obs = write(tmp_path, "obs.txt", "Z 1.0\n")
        rows = "Z 0.5 0.01\nZ 0.9 0.01\n" if source == "measurements" else "Z 0.4\n"
        meas = write(tmp_path, "meas.txt", rows)
        if source == "measurements":
            noise = ["--config", channel_json(tmp_path, family="bit_flip", n=1, p=0.0)]
        else:
            report = "n 1\nmode diagonal\n3 3 0.8 0.0 0 0\n3 3 0.2 0.0 0 0\n"
            noise = ["--characterization", write(tmp_path, "report.txt", report)]
        assert main(["deconvolve", "--observable", obs, *noise, "--measurements", meas]) == 2
        assert "repeats an earlier row" in capsys.readouterr().err

    @pytest.mark.parametrize("matrix", [[[1, 0], [0, 0], [0, 0]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]]],
                             ids=["3x2", "3x3"])
    def test_state_file_of_no_qubit_shape_exits_two(self, tmp_path, capsys, matrix):
        state = write(tmp_path, "state.json", json.dumps(matrix))
        assert main(["check-positivity", "--state-file", state]) == 2
        assert capsys.readouterr().out == ""

    def test_check_positivity_has_no_format(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["check-positivity", "--n", "1", "--format", "json"])
        assert err.value.code == 2

    def test_report_entry_out_of_range_exits_two(self, tmp_path, capsys):
        report = write(tmp_path, "report.txt", "n 1\nmode full\n1 4 0.9 0.0 0 0\n")
        obs = write(tmp_path, "obs.txt", "Z 1.0\n")
        meas = write(tmp_path, "meas.txt", "Z 0.5\n")
        assert main(["deconvolve", "--observable", obs, "--characterization", report,
                     "--measurements", meas]) == 2

    @pytest.mark.parametrize("row", ["0 0 0.5 0.0 0 0", "1 3 0.5 0.0 0 0"], ids=["k0", "off_diagonal"])
    def test_diagonal_report_row_off_the_probed_diagonal_exits_two(self, tmp_path, capsys, row):
        # the (0, 0) row set lambda_0 = 0.5 and printed value 3.0; the (1, 3) row was dropped; both exit 0
        report = write(tmp_path, "report.txt", f"n 1\nmode diagonal\n{row}\n3 3 0.8 0.0 0 0\n")
        obs = write(tmp_path, "obs.txt", "I 1.0\nZ 1.0\n")
        meas = write(tmp_path, "meas.txt", "I 1.0\nZ 0.8\n")
        assert main(["deconvolve", "--observable", obs, "--characterization", report,
                     "--measurements", meas]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--config", "--observable", "--measurements", "--characterization",
                                      "--state-file"])
    def test_undecodable_input_file_exits_two(self, tmp_path, capsys, flag):
        # the read raised UnicodeDecodeError: a traceback and exit 1
        bad = write(tmp_path, "bad.txt", "")
        pathlib.Path(bad).write_bytes(b"\xff\xfe")
        obs = write(tmp_path, "obs.txt", "Z 1.0\n")
        meas = write(tmp_path, "meas.txt", "Z 0.5\n")
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.1)
        argv = {
            "--config": ["ptm", "--config", bad],
            "--observable": ["deconvolve", "--observable", bad, "--config", cfg, "--measurements", meas],
            "--measurements": ["deconvolve", "--observable", obs, "--config", cfg, "--measurements", bad],
            "--characterization": ["deconvolve", "--observable", obs, "--characterization", bad,
                                   "--measurements", meas],
            "--state-file": ["check-positivity", "--state-file", bad],
        }[flag]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot read {bad}" in captured.err

    @pytest.mark.parametrize("n, rows, missing", [
        (1, "0 0 1.0 0.0 0 0\n1 1 0.9 0.0 0 0\n2 2 0.8 0.0 0 0\n3 3 0.7 0.0 0 0\n", 12),
        (5, "1 1 0.9 0.0 0 0\n", 4**10 - 1),
    ], ids=["n1_diagonal_rows_only", "n5_one_row"])
    def test_truncated_full_report_exits_two(self, tmp_path, capsys, n, rows, missing):
        report = write(tmp_path, "report.txt", f"n {n}\nmode full\n{rows}")
        obs = write(tmp_path, "obs.txt", "Z" * n + " 1.0\n")
        meas = write(tmp_path, "meas.txt", "Z" * n + " 0.5\n")
        assert main(["deconvolve", "--observable", obs, "--characterization", report,
                     "--measurements", meas]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"lacks {missing} of its {16**n} entries" in captured.err


class TestLineGrammar:
    """Observable, measurement and report text share one line grammar, and a
    refusal of a single line names that line."""

    @staticmethod
    def _deconvolve(tmp_path, files):
        """``deconvolve`` with each flag's text written to a file of its own."""
        return main(["deconvolve"] + [arg for flag, text in files.items()
                                      for arg in (flag, write(tmp_path, flag[2:], text))])

    @pytest.mark.parametrize("flag, text", [
        ("--observable", "Z 1.0\nZ inf\n"),
        ("--observable", "Z 1.0\nZZ 1.0\n"),
        ("--observable", "Z 1.0\nQ 1.0\n"),
        ("--observable", "Z 1.0\nZ 1.0 0.1\n"),
        ("--measurements", "Z 0.5\nZZ 0.5\n"),
        ("--measurements", "Z 0.5\nX 0.5 nan\n"),
        ("--measurements", "Z 0.5\nX half\n"),
        ("--characterization", "n 1\nmode diagonal\n3 3 0.8 0.1 5 7\n1 1 0.6 0.1 9 2\n"),
        ("--characterization", "n 1\nmode diagonal\n3 3 0.8 0.1 5 7\n1 1 0.6 0.1 5 8\n"),
        ("--characterization", "n 1\nmode diagonal\n3 3 0.8 0.1 5 7\nmode full\n"),
        ("--characterization", "n 1\nmode diagonal\n# rows\n3 3 0.8 0.1 99999999999999999999999 7\n"),
    ], ids=["obs_inf", "obs_qubit_count", "obs_label", "obs_fields", "meas_qubit_count", "meas_nan",
            "meas_number", "report_shots_and_seed", "report_seed", "report_header_twice",
            "report_shots_past_the_limit"])
    def test_refused_line_exits_two_naming_it(self, tmp_path, capsys, flag, text):
        # an infinite coefficient and a second qubit count in an observable exited 2
        # without naming the line; report rows with another shots/seed, a second
        # header line and a shot count past 2**63 - 1 exited 0
        files = {"--observable": "Z 1.0\n", "--measurements": "Z 0.5\nX 0.5\n",
                 "--characterization": "n 1\nmode diagonal\n1 1 0.8 0.1 5 7\n3 3 0.8 0.1 5 7\n"}
        files[flag] = text
        assert self._deconvolve(tmp_path, files) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("line 4" if flag == "--characterization" else "line 2") in captured.err

    def test_comments_blank_lines_and_case_are_one_grammar(self, tmp_path, capsys):
        files = {"--observable": "# observable\n\nz 1.0  # a term\n",
                 "--measurements": "  Z\t0.5 0.01\n# no data\n",
                 "--characterization": "n 1 # header\n\nmode diagonal\n3 3 0.8 0.0 5 7\n"}
        assert self._deconvolve(tmp_path, files) == 0
        assert capsys.readouterr().out == "value 0.625\nstd_error 0.0125\nentries_consulted 1\n"

    @pytest.mark.parametrize("flag, text", [
        ("--observable", "Z 1.0\rX 0.5\n"),
        ("--measurements", "Z 0.5\rX 0.5\n"),
        ("--characterization", "n 1\rmode diagonal\n3 3 0.8 0.0 5 7\n"),
    ], ids=["observable", "measurements", "report"])
    def test_a_lone_carriage_return_ends_no_line(self, tmp_path, capsys, flag, text):
        # files were read with newline translation, so a lone \r ended a line
        # at the CLI while Observable.from_text refused the same text
        files = {"--observable": "Z 1.0\n", "--measurements": "Z 0.5 0.01\n",
                 "--characterization": "n 1\nmode diagonal\n3 3 0.8 0.0 5 7\n"}
        files[flag] = text
        assert self._deconvolve(tmp_path, files) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "line 1" in captured.err

    def test_crlf_files_read_as_their_lf_twins(self, tmp_path, capsys):
        files = {"--observable": "# observable\nZ 1.0\nX -0.5\n", "--measurements": "Z 0.5 0.01\nX 0.25 0.02\n",
                 "--characterization": "n 1\nmode diagonal\n1 1 0.9 0.0 5 7\n3 3 0.8 0.0 5 7\n"}
        assert self._deconvolve(tmp_path, files) == 0
        lf = capsys.readouterr().out
        crlf = {flag: text.replace("\n", "\r\n") for flag, text in files.items()}
        assert self._deconvolve(tmp_path, crlf) == 0
        assert capsys.readouterr().out == lf and "entries_consulted 2\n" in lf

    @pytest.mark.parametrize("flag, text", [
        ("--observable", "# one\x0ctwo\nZ 1.0\x0b\nQ 1.0\n"),
        ("--measurements", "# one\x1ctwo\nZ 0.5\x1e\nZZ 0.5\n"),
        ("--characterization", "n 1\nmode diagonal\x0c# note\n3 3 0.8 0.1 5 7\n3 3 0.8 0.1 5 7\n"),
    ], ids=["observable", "measurements", "report"])
    def test_only_a_newline_ends_a_line(self, tmp_path, capsys, flag, text):
        # str.splitlines also breaks at \x0b, \x0c and \x1c-\x1e, which named
        # a later line or refused a comment's tail; here they are whitespace
        files = {"--observable": "Z\x0c1.0\n", "--measurements": "Z\x0b0.5\x0c0.01\n",
                 "--characterization": "n 1\nmode diagonal\n3 3\x0c0.8 0.0 5 7\n"}
        assert self._deconvolve(tmp_path, files) == 0
        assert capsys.readouterr().out == "value 0.625\nstd_error 0.0125\nentries_consulted 1\n"
        files[flag] = text
        assert self._deconvolve(tmp_path, files) == 2
        assert ("line 4" if flag == "--characterization" else "line 3") in capsys.readouterr().err


class TestNonFiniteInputs:
    def test_nan_strength_exits_three(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=float("nan"))
        assert main(["ptm", "--config", cfg, "--diagonal-only"]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("obs_text, meas_text", [
        ("Z 1.0\n", "Z nan\n"),
        ("Z 1.0\n", "Z 0.5 inf\n"),
        ("Z inf\n", "Z 0.5\n"),
        ("Z nan\n", "Z 0.5\n"),
    ])
    def test_non_finite_text_exits_two(self, tmp_path, capsys, obs_text, meas_text):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.1)
        obs = write(tmp_path, "obs.txt", obs_text)
        meas = write(tmp_path, "meas.txt", meas_text)
        assert main(["deconvolve", "--observable", obs, "--config", cfg,
                     "--measurements", meas]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("entry, shown", [("NaN", "nan"), ("-Infinity", "-inf"), ("[0.5, Infinity]", "[0.5, inf]")],
                             ids=["nan", "minus_inf", "inf_imaginary_part"])
    def test_non_finite_state_file_entry_exits_two_naming_it(self, tmp_path, capsys, entry, shown):
        # [[1,0],[0,NaN]] printed "S 1.0 nan nan FAIL" and exited 3
        state = write(tmp_path, "state.json", f"[[1, 0], [0, {entry}]]")
        assert main(["check-positivity", "--state-file", state]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"matrix entry (1, 1) is {shown}; entries must be finite" in captured.err

    def test_non_finite_initial_state_entry_exits_two_naming_it(self, tmp_path, capsys):
        # exited 3 with "initial state is not Hermitian"
        raw = {"n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.05},
               "observable": [["Z", 1.0]], "initial_state": [[1.0, 0.0], [0.0, float("nan")]], "m_max": 1}
        assert main(["experiment", "--config", write(tmp_path, "exp.json", json.dumps(raw))]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "matrix entry (1, 1) is nan; entries must be finite" in captured.err

    def test_overflowed_general_weights_exit_three_naming_m(self, tmp_path, capsys):
        # deconvolve printed value 0.0 and exited 0, as the prune's cut was inf
        # and kept no weight; both refused only after numpy RuntimeWarnings,
        # which fail this test
        obs = write(tmp_path, "obs.txt", "ZZ 1.7e308\n")
        meas = write(tmp_path, "meas.txt", "ZZ 0.5\nXX 0.1\nZI 0.2\nIZ 0.2\n")
        exp = write(tmp_path, "exp.json", json.dumps({
            "n": 2, "channel": {"family": "amp_damp_corr", "eta": 0.3, "mu": 0.5},
            "observable": [["XX", 1.0]], "initial_state": "zeros", "m_max": 1400}))
        for argv, m in [(["deconvolve", "--config", str(CONFIG_DIR / "channels" / "amp_damp_corr.json"),
                          "--observable", obs, "--measurements", meas], 1),
                        (["experiment", "--config", exp], 828)]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedWarning)
                assert main(argv) == 3
            assert capsys.readouterr() == (
                "", f"error: deconvolution weights at m = {m} are not finite; the inputs overflow the float range\n")


class TestWarningsAsErrors:
    """Under ``python -W error`` an IllConditionedWarning is an exception; it exits 3 with
    one ``error:`` line, not a traceback.  Without the flag the run is as before."""

    @staticmethod
    def _argv(tmp_path, case):
        if case == "amplified_experiment":  # warns at m = 22; without the flag, refused at m = 828
            return ["experiment", "--config", write(tmp_path, "exp.json", json.dumps({
                "n": 2, "channel": {"family": "amp_damp_corr", "eta": 0.3, "mu": 0.5},
                "observable": [["XX", 1.0]], "initial_state": "zeros", "m_max": 1400}))]
        matrix = np.diag([1.0, 1e-9, 1.0, 1.0])
        matrix[2, 3] = 0.5  # not Pauli-diagonal: the general path, condition bound 1.5e9
        rows = "".join(f"{j} {k} {float(matrix[j, k])!r} 0.0 0 0\n" for j in range(4) for k in range(4))
        return ["deconvolve", "--observable", write(tmp_path, "obs.txt", "Z 1.0\n"),
                "--characterization", write(tmp_path, "report.txt", "n 1\nmode full\n" + rows),
                "--measurements", write(tmp_path, "meas.txt", "Z 0.5\n")]

    @pytest.mark.parametrize("case, message", [
        ("amplified_experiment", "deconvolution weights amplify the observable by 1.589e+08 (m = 22)"),
        ("ill_conditioned_report", "transfer-matrix inversion with condition number 1.500e+09"),
    ], ids=["amplified_experiment", "ill_conditioned_report"])
    def test_warning_as_error_exits_three(self, tmp_path, case, message):
        argv = self._argv(tmp_path, case)
        src = str(pathlib.Path(noisedeconv.__file__).resolve().parents[1])

        def run(*flags):
            return subprocess.run([sys.executable, *flags, "-m", "noisedeconv", *argv],
                                  capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})

        strict = run("-W", "error")
        assert (strict.returncode, strict.stdout, strict.stderr) == (3, "", f"error: {message}\n")
        plain = run()
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            code = main(argv)
        assert (plain.returncode, plain.stdout) == (code, out.getvalue())
        assert "IllConditionedWarning" in plain.stderr and "Traceback" not in plain.stderr
        assert code == (3 if case == "amplified_experiment" else 0)


class TestNegativeInputs:
    def test_negative_std_error_in_measurements_exits_two(self, tmp_path, capsys):
        cfg = channel_json(tmp_path, family="bit_flip", n=1, p=0.1)
        obs = write(tmp_path, "obs.txt", "Z 1.0\n")
        meas = write(tmp_path, "meas.txt", "X 0.5 0.1\nZ 0.5 -1\n")
        assert main(["deconvolve", "--observable", obs, "--config", cfg,
                     "--measurements", meas]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "line 2" in captured.err

    @pytest.mark.parametrize("row", ["3 3 0.8 -0.1 0 0", "3 3 0.8 0.1 -5 0", "3 3 0.8 0.1 5 -7",
                                     "3 3 0.8 -0.1 -5 -7"])
    def test_negative_report_fields_exit_two(self, tmp_path, capsys, row):
        report = write(tmp_path, "report.txt", f"n 1\nmode diagonal\n{row}\n")
        obs = write(tmp_path, "obs.txt", "Z 1.0\n")
        meas = write(tmp_path, "meas.txt", "Z 0.5\n")
        assert main(["deconvolve", "--observable", obs, "--characterization", report,
                     "--measurements", meas]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "line 3" in captured.err


# Channel parameters: mostly valid values, plus NaN, +-inf, negatives and
# values above 1 (st.floats() draws all of these).
PARAMS = st.one_of(st.floats(0.0, 1.0), st.floats())
LABELS = st.text("IXYZ", min_size=1, max_size=2)
NUMBERS = st.one_of(st.floats(-1.0, 1.0).map(repr), st.floats().map(repr),
                    st.sampled_from(["1e999", "-1e999", "x", "0x1p3"]))
# Qubit counts of the Markov-correlated families: small ones, and from the
# dense cap to one past the sparse cap (n = 3..5 would only make the full
# transfer matrix that ptm prints slow).
MARKOV_N = st.one_of(st.integers(1, 2), st.integers(6, MAX_QUBITS_SPARSE + 1))
CHANNELS = st.one_of(
    st.fixed_dictionaries({"family": st.sampled_from(["bit_flip", "dephasing"]),
                           "n": MARKOV_N, "p": PARAMS, "mu": PARAMS}),
    st.fixed_dictionaries({"family": st.just("depolarizing"),
                           "n": MARKOV_N, "q": PARAMS, "mu": PARAMS}),
    st.fixed_dictionaries({"family": st.just("amp_damp_corr"), "eta": PARAMS, "mu": PARAMS}),
    st.fixed_dictionaries({"family": st.just("pauli_custom"), "n": MARKOV_N,
                           "p_vec": st.lists(PARAMS, min_size=4, max_size=4), "mu": PARAMS}),
)


def _text(rows):
    return "".join(" ".join(row) + "\n" for row in rows)


def _label(k, n):
    return "".join("IXYZ"[(k >> 2 * (n - 1 - q)) & 3] for q in range(n))


@st.composite
def experiment_configs(draw, channel):
    """An experiment config on ``channel`` with grids that may hold NaN or
    inf; in every other draw one field is out of range or unknown."""
    n = channel.get("n", 2)
    raw = {
        "n": n,
        "channel": channel,
        "observable": draw(st.lists(st.tuples(st.text("IXYZ", min_size=n, max_size=n),
                                              st.floats(-1.0, 1.0)), min_size=1, max_size=3)),
        "initial_state": draw(st.sampled_from(["zeros", "plus", "mixed"])),
        "m_max": draw(st.integers(0, 6)),
        "shots": draw(st.sampled_from([0, 1, 64])),
        "seed": draw(st.integers(0, 3)),
    }
    if draw(st.booleans()):
        raw["sampling"] = "marginal"
    for key in ("mu_grid", "strength_grid"):
        grid = draw(st.one_of(st.none(), st.lists(PARAMS, min_size=1, max_size=2)))
        if grid is not None:
            raw[key] = grid
    if draw(st.booleans()):
        key, value = draw(st.sampled_from([
            ("n", 3), ("m_max", -1), ("shots", -1), ("seed", -1), ("initial_state", "bogus"),
            ("sampling", "bogus"), ("sampling", "projective"), ("observable", [["Z" * n, float("inf")]]),
            ("n", 1.5), ("m_max", 2.5), ("shots", True), ("shot", 100), ("sed", 4),
            ("channel", {**channel, "muu": 0.5}),
        ]))
        raw[key] = value
    return raw


@st.composite
def report_inputs(draw):
    """A characterization report with observable and measurement text on
    its qubit count.  Full reports start from every entry of the identity,
    with drawn rows replacing entries, so some invert; in every other draw
    the header is out of range or malformed."""
    n = draw(st.integers(1, 2))
    D = 4**n
    terms = draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=3, unique=True))
    obs = _text([(_label(k, n), repr(draw(st.floats(-1.0, 1.0)))) for k in terms])
    meas = _text([(_label(j, n), repr(draw(st.floats(-1.0, 1.0))), repr(draw(st.floats(0.0, 1.0))))
                  for j in range(D)])
    mode = draw(st.sampled_from(["diagonal", "full"]))
    pairs = st.one_of(st.sampled_from(terms).map(lambda k: (k, k)),
                      st.tuples(st.integers(-1, D), st.integers(-1, D)))
    rows = {(j, k): "1.0" if j == k else "0.0" for j in range(D) for k in range(D)} if mode == "full" else {}
    rows.update(draw(st.lists(st.tuples(pairs, NUMBERS), max_size=6)))
    header = f"n {n}\nmode {mode}\n"
    if draw(st.booleans()):
        header = draw(st.sampled_from(["n 0\nmode full\n", "n 7\nmode diagonal\n", "n 10\nmode full\n",
                                       f"n {n}\nmode bogus\n", f"n {n}\n", "n x\nmode full\n"]))
    report = header + _text([(str(j), str(k), est, "0.0", "0", "0") for (j, k), est in rows.items()])
    return report, obs, meas


@st.composite
def cli_inputs(draw):
    """A channel config plus observable and measurement text, with labels
    mostly on the channel's qubit count, an experiment config on the
    channel, and a characterization report with its own observable and
    measurements."""
    cfg = draw(CHANNELS)
    labels = st.one_of(st.text("IXYZ", min_size=cfg.get("n", 2), max_size=cfg.get("n", 2)), LABELS)
    obs = draw(st.lists(st.tuples(labels, NUMBERS), min_size=1, max_size=3))
    meas = draw(st.lists(st.tuples(labels, NUMBERS, NUMBERS), min_size=1, max_size=6))
    return cfg, _text(obs), _text(meas), draw(experiment_configs(cfg)), draw(report_inputs())


@settings(max_examples=150, deadline=None)
@given(inputs=cli_inputs())
@example(inputs=(  # general-path weights that overflow at m = 1 exit 3 with no numpy warning
    {"family": "amp_damp_corr", "eta": 0.5, "mu": 0.25}, "ZZ 1.7e308\n", "ZZ 0.5\nXX 0.1\nZI 0.2\nIZ 0.2\n",
    {"n": 2, "channel": {"family": "amp_damp_corr", "eta": 0.5, "mu": 0.25}, "observable": [["ZZ", 1.0]],
     "m_max": 2},
    ("n 1\nmode diagonal\n3 3 0.9 0.0 0 0\n", "Z 1.0\n", "Z 0.5 0.1\n"),
))
def test_fuzzed_inputs_keep_the_exit_code_contract(tmp_path_factory, inputs):
    cfg, obs, meas, experiment, report = inputs
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = channel_json(tmp, **cfg)
    obs, meas = write(tmp, "obs.txt", obs), write(tmp, "meas.txt", meas)
    experiment = channel_json(tmp, "exp.json", **experiment)
    report, report_obs, report_meas = (write(tmp, name, text) for name, text in
                                       zip(("report.txt", "report_obs.txt", "report_meas.txt"), report))
    for argv in (["ptm", "--config", cfg],
                 ["deconvolve", "--config", cfg, "--observable", obs, "--measurements", meas],
                 ["experiment", "--config", experiment],
                 ["deconvolve", "--characterization", report, "--observable", report_obs,
                  "--measurements", report_meas]):
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            # an ill-conditioned inversion warns on stderr and keeps its exit code
            warnings.simplefilter("ignore", IllConditionedWarning)
            rc = main(argv)
        assert rc in (0, 2, 3, 4), argv
        if rc == 0:
            text = out.getvalue()
            if argv[0] == "experiment":  # mu and q are NaN where the family has none
                text = "\n".join(",".join(line.split(",")[2:]) for line in text.splitlines())
            for token in re.split(r"[\s,]+", text):
                try:
                    value = float(token)
                except ValueError:
                    continue
                assert math.isfinite(value), (argv, out.getvalue())


class TestShippedPresets:
    def test_channel_presets_parse_and_run(self, capsys):
        for path in sorted((CONFIG_DIR / "channels").glob("*.json")):
            cfg = json.loads(path.read_text())
            args = ["ptm", "--config", str(path)]
            if cfg["family"] != "amp_damp_corr":
                args.append("--diagonal-only")
            assert main(args) == 0, path
            capsys.readouterr()

    def test_experiment_presets_parse_and_run(self, capsys):
        for path in sorted((CONFIG_DIR / "experiments").glob("*.json")):
            assert main(["experiment", "--config", str(path)]) == 0, path
            out = capsys.readouterr().out
            assert out.startswith("mu,q,m,k,")

    def test_shipped_configs_do_not_warn(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for path in sorted((CONFIG_DIR / "experiments").glob("*.json")):
                assert main(["experiment", "--config", str(path)]) == 0, path
            for path in sorted((CONFIG_DIR / "channels").glob("*.json")):
                n = json.loads(path.read_text()).get("n", 2)
                labels = ["".join("IXYZ"[(k >> 2 * (n - 1 - q)) & 3] for q in range(n)) for k in range(4**n)]
                obs = write(tmp_path, "obs.txt", "".join(f"{label} 1.0\n" for label in labels))
                meas = write(tmp_path, "meas.txt", "".join(f"{label} 0.5\n" for label in labels))
                assert main(["deconvolve", "--config", str(path), "--observable", obs,
                             "--measurements", meas]) == 0, path
        capsys.readouterr()

    def test_mu_sweep_preset_one_curve_per_mu(self, capsys):
        assert main(["experiment", "--config", str(CONFIG_DIR / "experiments" / "fig2a_mu_sweep.json")]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        mus = sorted({line.split(",")[0] for line in lines})
        assert mus == ["0.0", "0.25", "0.5", "0.75", "1.0"]
        assert len(lines) == 5 * 41

    def test_label_k_and_bad_label(self, capsys):
        assert main(["check-positivity", "--n", "2", "--k", "ZZ"]) == 0
        capsys.readouterr()
        assert main(["check-positivity", "--n", "1", "--k", "ZZ"]) == 2
        assert main(["check-positivity", "--n", "1", "--k", "0"]) == 3  # identity probe
