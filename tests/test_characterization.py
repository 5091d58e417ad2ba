import dataclasses
import json
import math
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from conftest import (
    evolve,
    positivity_certificate_reference,
    random_density,
    report_from_text_reference,
    report_matrix_reference,
    sample_pauli_expectation,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from noisedeconv import characterization, pauli

from noisedeconv.channels import (
    KrausChannel,
    bit_flip_channel,
    correlated_amplitude_damping,
    dephasing_channel,
    depolarizing_channel,
)
from noisedeconv.characterization import (
    CharacterizedPTM,
    estimate_diagonal_entries,
    estimate_full_ptm,
    PSD_TOL,
    positivity_certificates,
    probe_state,
)
from noisedeconv.cli import main
from noisedeconv.exceptions import (
    DimensionMismatch,
    IdentityProbe,
    NonUnitalChannel,
    ParseError,
    ResourceCapExceeded,
)
from noisedeconv.pauli import HERMITIAN_TOL, MEMO_SIZE, label_index
from noisedeconv.sampling import MAX_SHOTS, derive_rng


class TestProbeState:
    def test_single_qubit_z_probe(self):
        probe = probe_state(3, 1)
        assert np.allclose(probe, np.diag([1.0, 0.0]))

    def test_two_qubit_zz_probe(self):
        probe = probe_state(15, 2)
        assert np.allclose(probe, np.diag([0.5, 0.0, 0.0, 0.5]))

    def test_eigenvalues_zero_or_two_over_d(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4):
            d = 2**n
            for k in rng.integers(1, 4**n, 5):
                vals = np.linalg.eigvalsh(probe_state(int(k), n))
                assert np.all(np.isclose(vals, 0.0) | np.isclose(vals, 2.0 / d))

    def test_unit_trace_hermitian(self):
        op = probe_state(7, 2)
        assert abs(np.trace(op) - 1.0) < 1e-12
        assert np.max(np.abs(op - op.conj().T)) == 0

    def test_identity_probe_rejected(self):
        with pytest.raises(IdentityProbe):
            probe_state(0, 2)


class TestEstimateDiagonalEntry:
    def test_identity_channel(self):
        ch = KrausChannel([np.eye(4)])
        for k in (1, 5, 15):
            value, err = estimate_diagonal_entries(ch, [k]).entries[(k, k)]
            assert value == pytest.approx(1.0, abs=1e-12)
            assert err == 0.0

    def test_depolarizing_exact(self):
        value, _ = estimate_diagonal_entries(depolarizing_channel(1, 0.2), [3]).entries[(3, 3)]
        assert value == pytest.approx(0.8, abs=1e-12)

    def test_matches_ptm_from_kraus(self):
        ch = bit_flip_channel(2, 0.2, 0.6)
        k = label_index("ZZ")[1]
        value, _ = estimate_diagonal_entries(ch, [k]).entries[(k, k)]
        assert value == pytest.approx(ch.ptm().matrix[k, k], abs=1e-12)

    def test_non_unital_rejected(self):
        with pytest.raises(NonUnitalChannel):
            estimate_diagonal_entries(correlated_amplitude_damping(0.5, 0.0), [15])

    def test_identity_index_rejected(self):
        with pytest.raises(IdentityProbe):
            estimate_diagonal_entries(bit_flip_channel(1, 0.1), [0])

    def test_shot_convergence_bound(self):
        ch = depolarizing_channel(1, 0.2)
        exact, _ = estimate_diagonal_entries(ch, [3]).entries[(3, 3)]
        for shots in (1024, 8192, 65536):
            value, err = estimate_diagonal_entries(ch, [3], shots=shots, seed=13).entries[(3, 3)]
            assert abs(value - exact) <= 3.0 / np.sqrt(shots)
            assert err <= np.sqrt(1.0 / shots)

    def test_sampled_deterministic(self):
        ch = bit_flip_channel(2, 0.1, 0.4)
        a = estimate_diagonal_entries(ch, [15], shots=4096, seed=7).entries[(15, 15)]
        b = estimate_diagonal_entries(ch, [15], shots=4096, seed=7).entries[(15, 15)]
        assert a == b


class TestEstimateFullPtm:
    def test_identity_channel(self):
        result = estimate_full_ptm(KrausChannel([np.eye(2)]))
        assert np.allclose(result.ptm().matrix, np.eye(4))

    def test_unital_amp_damp_edge(self):
        result = estimate_full_ptm(correlated_amplitude_damping(1.0, 0.4))
        assert np.allclose(result.ptm().matrix, np.eye(16))

    def test_pauli_channel_matches_kraus_route(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            ch = KrausChannel.from_pauli_weights(n, rng.dirichlet(np.ones(4**n)))
            est = estimate_full_ptm(ch).ptm().matrix
            assert np.max(np.abs(est - ch.ptm().matrix)) < 1e-12

    def test_non_unital_rejected(self):
        with pytest.raises(NonUnitalChannel):
            estimate_full_ptm(correlated_amplitude_damping(0.3, 0.5))

    def test_identity_row_column_filled(self):
        result = estimate_full_ptm(bit_flip_channel(1, 0.2))
        M = result.ptm().matrix
        assert np.array_equal(M[0], [1, 0, 0, 0])
        assert np.array_equal(M[:, 0], [1, 0, 0, 0])

    @pytest.mark.parametrize("n", [1, 2])
    def test_sampled_equals_dense_sampler_per_entry(self, n):
        ch = depolarizing_channel(n, 0.2, 0.4) if n == 2 else dephasing_channel(1, 0.15)
        shots, seed = 700, 13
        result = estimate_full_ptm(ch, shots=shots, seed=seed)
        for k in range(1, 4**n):
            # probe k is one stream (seed, k), read with j = k first
            out, rng = evolve(probe_state(k, n), ch, 1), derive_rng(seed, k)
            for j in [k, *(j for j in range(1, 4**n) if j != k)]:
                assert result.entries[(j, k)] == sample_pauli_expectation(out, j, shots, rng)

    def test_sampled_within_four_sigma(self):
        ch = bit_flip_channel(1, 0.1)
        exact = ch.ptm().matrix
        result = estimate_full_ptm(ch, shots=65536, seed=3)
        for (j, k), (est, err) in result.entries.items():
            if j == 0 or k == 0:
                continue
            assert abs(est - exact[j, k]) <= max(4 * err, 1e-12)


class TestDiagonalEntries:
    def test_r_probe_accounting(self):
        ch = depolarizing_channel(2, 0.1, 0.3)
        ks = [3, 12, 15]
        result = estimate_diagonal_entries(ch, ks)
        assert result.mode == "diagonal"
        assert set(result.entries) == {(k, k) for k in ks}
        assert len(result.entries) == len(ks)

    @pytest.mark.parametrize("ch", [depolarizing_channel(2, 0.1, 0.3), correlated_amplitude_damping(1.0, 0.4)],
                             ids=["pauli", "kraus"])
    def test_unitality_checked_once_per_call(self, monkeypatch, ch):
        from noisedeconv import characterization

        reads, probes = [], []
        original = characterization._probe_outputs

        def counting(channel, ks):
            reads.append(channel)
            output = original(channel, ks)
            return lambda k, js: probes.append(k) or output(k, js)

        monkeypatch.setattr(characterization, "_probe_outputs", counting)
        ks = [1, 3, 5, 12, 15]
        result = estimate_diagonal_entries(ch, ks)
        assert reads == [ch] and probes == ks
        for k in ks:
            reads.clear(), probes.clear()
            assert estimate_diagonal_entries(ch, [k]).entries[(k, k)] == result.entries[(k, k)]
            assert reads == [ch] and probes == [k]

    def test_non_unital_rejected(self):
        with pytest.raises(NonUnitalChannel):
            estimate_diagonal_entries(correlated_amplitude_damping(0.5, 0.3), [3, 12])

    @pytest.mark.parametrize("ch", [depolarizing_channel(2, 0.1, 0.3), correlated_amplitude_damping(1.0, 0.4)],
                             ids=["pauli", "kraus"])
    def test_each_entry_is_the_full_reports(self, ch):
        full = estimate_full_ptm(ch, shots=300, seed=8).entries
        for k in range(1, 16):
            assert estimate_diagonal_entries(ch, [k], shots=300, seed=8).entries == {(k, k): full[(k, k)]}

    def test_entry_does_not_depend_on_the_other_probes(self):
        ch = bit_flip_channel(2, 0.15, 0.25)
        alone = estimate_diagonal_entries(ch, [3], shots=700, seed=2).entries[(3, 3)]
        assert estimate_diagonal_entries(ch, [5, 3], shots=700, seed=2).entries[(3, 3)] == alone
        assert estimate_diagonal_entries(ch, [3, 15, 5], shots=700, seed=2).entries[(3, 3)] == alone

    @pytest.mark.parametrize("shots", [0, 700])
    def test_a_repeated_k_is_one_row(self, shots):
        ch = bit_flip_channel(2, 0.15, 0.25)
        once = estimate_diagonal_entries(ch, [3, 5], shots=shots, seed=2)
        for ks in ([3, 3, 5], [3, np.int64(3), 5, 3]):
            report = estimate_diagonal_entries(ch, ks, shots=shots, seed=2)
            assert (report.js, report.ks, report.estimates, report.std_errors) == \
                (once.js, once.ks, once.estimates, once.std_errors)
            text = report.to_report_text()
            assert text == once.to_report_text()
            assert CharacterizedPTM.from_report_text(text) == once

    def test_kraus_channel_past_the_full_cap_refused(self):
        # Probe outputs come from the transfer matrix, so a non-Pauli channel
        # is capped as plan() and run_experiment cap it; a Pauli one is not.
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        h6 = np.ones((1, 1))
        for _ in range(6):
            h6 = np.kron(h6, hadamard)
        ch = KrausChannel([np.sqrt(0.9) * np.eye(64), np.sqrt(0.1) * h6])
        assert not ch.is_pauli
        with pytest.raises(ResourceCapExceeded, match="1..5"):
            estimate_diagonal_entries(ch, [4095])
        pauli = bit_flip_channel(6, 0.1)
        assert estimate_diagonal_entries(pauli, [4095]).entries[(4095, 4095)] == (pauli.lambdas()[4095], 0.0)


class TestReportFormat:
    def test_roundtrip(self):
        ch = bit_flip_channel(2, 0.15, 0.25)
        result = estimate_diagonal_entries(ch, [5, 15], shots=2048, seed=9)
        text = result.to_report_text()
        again = CharacterizedPTM.from_report_text(text)
        assert again == result
        assert again.to_report_text() == text

    def test_full_roundtrip(self):
        result = estimate_full_ptm(dephasing_channel(1, 0.2))
        again = CharacterizedPTM.from_report_text(result.to_report_text())
        assert np.allclose(again.ptm().matrix, result.ptm().matrix)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            CharacterizedPTM.from_report_text("nonsense header\n")
        with pytest.raises(ParseError):
            CharacterizedPTM.from_report_text("n 1\nmode diagonal\n1 1 bad 0.0 0 0\n")
        with pytest.raises(ParseError):
            CharacterizedPTM.from_report_text("")

    def test_repeated_row_rejected(self):
        with pytest.raises(ParseError, match="line 4"):
            CharacterizedPTM.from_report_text("n 1\nmode diagonal\n3 3 0.8 0.0 0 0\n3 3 0.2 0.0 0 0\n")

    @pytest.mark.parametrize("row", ["4 4 0.9 0.0 0 0", "-1 1 0.9 0.0 0 0", "1 1 nan 0.0 0 0",
                                     "0 0 0.5 0.0 0 0", "1 3 0.5 0.0 0 0", "3 3 0.8 -0.1 0 0",
                                     "3 3 0.8 0.1 -5 0", "3 3 0.8 0.1 5 -7"])
    def test_out_of_range_or_non_finite_row(self, row):
        with pytest.raises(ParseError):
            CharacterizedPTM.from_report_text(f"n 1\nmode diagonal\n{row}\n")


class TestReportRefusals:
    @pytest.mark.parametrize("text, line, key", [
        ("n 1\nn 2\nmode diagonal\n3 3 0.5 0.1 10 1\n", 2, "n"),
        ("n 1\nmode diagonal\n3 3 0.5 0.1 10 1\nmode full\n", 4, "mode"),
        ("mode bogus\nn 1\nmode diagonal\n", 3, "mode"),
        ("n 1\nmode full\n# comment\n\nn 1\n", 5, "n"),
    ])
    def test_repeated_header_line_is_refused(self, text, line, key):
        # the last 'n' or 'mode' line used to win: the first text parsed with n = 2
        with pytest.raises(ParseError, match=f"^line {line}: header '{key}' repeats line"):
            CharacterizedPTM.from_report_text(text)

    @pytest.mark.parametrize("shots", [MAX_SHOTS + 1, 99999999999999999999999])
    def test_shots_past_the_limit_are_refused_at_the_first_row(self, shots):
        # such a report parsed, and was written back with its shot count
        text = f"n 1\nmode diagonal\n1 1 0.5 0.1 {shots} 1\n3 3 0.5 0.1 {shots} 1\n"
        with pytest.raises(ParseError, match=f"^line 3: shots must be in 0..{MAX_SHOTS}"):
            CharacterizedPTM.from_report_text(text)

    def test_shots_at_the_limit_parse(self):
        text = f"n 1\nmode diagonal\n3 3 0.5 0.1 {MAX_SHOTS} 1\n"
        assert CharacterizedPTM.from_report_text(text).shots == MAX_SHOTS

    def test_a_digit_that_is_no_decimal_is_a_bad_header(self):
        # 'n \u00b2' passed isdigit() and then raised a bare ValueError (exit 1)
        with pytest.raises(ParseError, match="^line 1: bad header line"):
            CharacterizedPTM.from_report_text("n \u00b2\nmode diagonal\n")


class TestReportRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("shots", [0, 1000])
    @pytest.mark.parametrize("memo", [1, MEMO_SIZE])
    def test_full_report_text_is_byte_exact(self, n, shots, memo, monkeypatch):
        monkeypatch.setattr(pauli, "MEMO_SIZE", memo)
        report = estimate_full_ptm(depolarizing_channel(n, 0.05, 0.3), shots, seed=5)
        text = report.to_report_text()
        again = CharacterizedPTM.from_report_text(text)
        assert again == report
        assert list(again.entries) == sorted(report.entries)  # the text's row order
        assert again.to_report_text() == text

    def test_negative_zero_keeps_its_sign(self):
        report = CharacterizedPTM(1, "diagonal", [1, 2, 3], [1, 2, 3], [0.0, -0.0, 0.0], [0.0, 0.0, -0.0], 0, 0)
        text = report.to_report_text()
        assert text.splitlines()[3:] == ["1 1 0.0 0.0 0 0", "2 2 -0.0 0.0 0 0", "3 3 0.0 -0.0 0 0"]
        again = CharacterizedPTM.from_report_text(text)
        assert [tuple(map(math.copysign, (1.0, 1.0), v)) for v in again.entries.values()] == \
            [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)]
        assert again.to_report_text() == text

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("shots", [0, 1000])
    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_text_and_json_survive_a_parse_byte_for_byte(self, n, shots, mode, monkeypatch, capsys, tmp_path):
        ch = depolarizing_channel(n, 0.05, 0.3)
        if mode == "full":
            report = estimate_full_ptm(ch, shots, seed=5)
        else:  # probed in descending k, so the columns are not in the text's (j, k) order
            report = estimate_diagonal_entries(ch, range(4**n - 1, 0, -2), shots, seed=5)
        report = dataclasses.replace(report,  # with -0.0 cells, which print apart from 0.0
                                     estimates=[-0.0 if i % 7 == 3 else e for i, e in enumerate(report.estimates)],
                                     std_errors=[-0.0 if i % 5 == 2 else e for i, e in enumerate(report.std_errors)])
        text = report.to_report_text()
        again = CharacterizedPTM.from_report_text(text)
        assert again == report
        assert again.to_report_text() == text
        written = _characterize_json(monkeypatch, capsys, tmp_path, report)
        assert _characterize_json(monkeypatch, capsys, tmp_path, again) == written
        assert json.loads(written)["entries"] == [{"j": j, "k": k, "estimate": est, "std_error": err}
                                                  for (j, k), (est, err) in sorted(report.entries.items())]

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_sorted_columns_follow_lexsort_on_shuffled_columns(self, mode):
        n = 2
        report = estimate_full_ptm(depolarizing_channel(n, 0.05, 0.3), 1000, seed=5) if mode == "full" else \
            estimate_diagonal_entries(depolarizing_channel(n, 0.05, 0.3), range(1, 4**n), 1000, seed=5)
        shuffle = np.random.default_rng(7).permutation(len(report.js))
        shuffled = dataclasses.replace(report, **{name: [getattr(report, name)[i] for i in shuffle]
                                                  for name in ("js", "ks", "estimates", "std_errors")})
        order = np.lexsort((shuffled.ks, shuffled.js))
        assert shuffled.sorted_columns == [[column[i] for i in order] for column in
                                           (shuffled.js, shuffled.ks, shuffled.estimates, shuffled.std_errors)]

    def test_equality_ignores_row_order_and_the_sign_of_zero(self):
        report = CharacterizedPTM(1, "diagonal", [1, 2, 3], [1, 2, 3], [0.5, 0.0, -0.25], [0.1, 0.0, 0.2], 10, 1)
        shuffled = CharacterizedPTM(1, "diagonal", [3, 1, 2], [3, 1, 2], [-0.25, 0.5, -0.0], [0.2, 0.1, 0.0], 10, 1)
        assert report == shuffled
        assert report != dataclasses.replace(shuffled, estimates=[-0.25, 0.5, 0.125])
        assert report != dataclasses.replace(shuffled, seed=2)
        assert report != dataclasses.replace(shuffled, js=[3, 1, 1], ks=[3, 1, 1])


def _characterize_json(monkeypatch, capsys, tmp_path, report):
    """``characterize --format json`` output when the estimate is ``report``."""
    monkeypatch.setattr(characterization, "estimate_full_ptm", lambda *args, **kwargs: report)
    monkeypatch.setattr(characterization, "estimate_diagonal_entries", lambda *args, **kwargs: report)
    config = tmp_path / "channel.json"
    config.write_text(json.dumps({"family": "depolarizing", "n": report.n, "q": 0.1}))
    entries = "full" if report.mode == "full" else "1"
    assert main(["characterize", "--config", str(config), "--entries", entries, "--format", "json"]) == 0
    return capsys.readouterr().out


def _arabic(value):
    return str(value).translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                            "\u0665\u0666\u0667\u0668\u0669"))


# Each mutation edits the line list at a drawn position; row edits pick the
# data row at or after it (or the last one).
MUTATIONS = ["blank", "comment", "trailing_comment", "header", "int_form", "repeat_row", "non_finite",
             "negative_error", "run", "out_of_range", "off_diagonal", "field_count", "malformed",
             "huge_shots", "huge_shots_everywhere", "drop_header", "whitespace", "negative_zero"]


@st.composite
def report_texts(draw):
    """Report text written as ``to_report_text`` writes it, then mutated."""
    n = draw(st.integers(1, 3))
    D = 4**n
    mode = draw(st.sampled_from(["full", "diagonal"]))
    shots, seed = draw(st.sampled_from([(0, 0), (1000, 7), (5, 3)]))
    rnd = draw(st.randoms(use_true_random=False))
    if mode == "full":
        pairs = [(j, k) for j in range(D) for k in range(D)][:rnd.choice([D * D, rnd.randint(0, D * D)])]
    else:
        pairs = sorted((k, k) for k in rnd.sample(range(1, D), rnd.randint(0, D - 1)))
    lines = ["# transfer-matrix characterization report", f"n {n}", f"mode {mode}"]
    for j, k in pairs:
        c = rnd.randint(0, max(shots, 1))
        est = 2 * c / shots - 1 if shots else rnd.uniform(-1, 1)
        err = math.sqrt(max(0.0, 1 - est * est) / shots) if shots else 0.0
        lines.append(f"{j} {k} {est!r} {err!r} {shots} {seed}")
    for kind, at in draw(st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2**16)), max_size=4)):
        pos = at % (len(lines) + 1) if at % 3 else max(0, len(lines) - 1 - at % 7)  # often near the end
        rows = [i for i, line in enumerate(lines) if len(_data(line)) == 6]
        if kind == "blank":
            lines.insert(pos, rnd.choice(["", "   ", "\t"]))
        elif kind == "comment":
            lines.insert(pos, "# note 1 2 3 4 5 6")
        elif kind == "header":
            lines.insert(pos, rnd.choice([f"n {n}", f"n {n + 1}", "n x", "n 03", f"n {_arabic(n)}",
                                          "n \u00b2", "mode full", "mode diagonal", "mode bogus", "q 1"]))
        elif kind == "drop_header":
            lines = [line for line in lines if line != rnd.choice([f"n {n}", f"mode {mode}"])]
        elif kind == "huge_shots_everywhere":  # so only the range rule refuses it
            big = rnd.choice([str(MAX_SHOTS + 1), "99999999999999999999999", str(MAX_SHOTS)])
            lines = [" ".join(_data(line)[:4] + [big] + _data(line)[5:]) if i in rows else line
                     for i, line in enumerate(lines)]
        elif rows:
            row = next((i for i in rows if i >= pos), rows[-1])
            lines[row:row + 1] = _edit_row(kind, _data(lines[row]), lines[row], D, rnd)
    return "\n".join(lines) + rnd.choice(["\n", ""])


def _data(line):
    return line.split("#", 1)[0].split()


def _edit_row(kind, fields, line, D, rnd):
    """The lines that replace the data row ``line`` (with data ``fields``)."""
    if kind == "trailing_comment":
        return [line + rnd.choice([" # checked", "#", "# 1 2"])]
    if kind == "repeat_row":
        return [line, line] if rnd.random() < 0.5 else [line, "# between", line]
    if kind == "whitespace":
        return ["\t" + "  \t ".join(fields) + "  "]
    if kind == "int_form":
        i = rnd.choice([0, 1, 4, 5])
        fields[i] = rnd.choice([f"+{fields[i]}", f"0{fields[i]}", _arabic(fields[i]), f"{fields[i]}.0"])
    elif kind == "non_finite":
        fields[rnd.choice([2, 3])] = rnd.choice(["nan", "inf", "-inf", "1e999"])
    elif kind == "negative_error":
        fields[3] = rnd.choice(["-0.1", "-0.0", "-1e-300"])
    elif kind == "negative_zero":
        fields[2] = "-0.0"
    elif kind == "run":
        fields[rnd.choice([4, 5])] = rnd.choice(["1", "6", "-1", "1000"])
    elif kind == "huge_shots":
        fields[4] = rnd.choice([str(MAX_SHOTS + 1), "99999999999999999999999", str(MAX_SHOTS)])
    elif kind == "out_of_range":
        fields[rnd.choice([0, 1])] = rnd.choice([str(D), "-1"])
    elif kind == "off_diagonal":
        fields[1] = str(rnd.randrange(D))
    elif kind == "field_count":
        fields = fields[:-1] if rnd.random() < 0.5 else fields + ["0"]
    elif kind == "malformed":
        fields[rnd.randrange(6)] = rnd.choice(["x", "0x10", "1.5", "1_0", "--1"])
    return [" ".join(fields)]


def _declared_refusal(text):
    """(line, message start) of the first line the chunked parser refuses
    and the reference does not: a second valid 'n' or 'mode' line, the
    first row's shots past MAX_SHOTS, or an 'n' value that isdigit() but is
    no decimal."""
    seen, first_row = set(), True
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split("#", 1)[0].split()
        if len(fields) == 2:
            key, value = fields
            if key == "n" and value.isdigit() and not value.isdecimal():
                return lineno, f"line {lineno}: bad header line"
            if key == "mode" or key == "n" and value.isdecimal():
                if key in seen:
                    return lineno, f"line {lineno}: header '{key}' repeats line"
                seen.add(key)
        elif len(fields) == 6 and first_row:
            first_row = False
            try:
                if int(fields[4]) > MAX_SHOTS:
                    return lineno, f"line {lineno}: shots must be in 0..{MAX_SHOTS}"
            except ValueError:
                pass
    return None


def _outcome(parse, text):
    try:
        n, mode, entries, shots, seed = parse(text)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return n, mode, repr(list(entries.items())), shots, seed


def _parse(text):
    report = CharacterizedPTM.from_report_text(text)
    return report.n, report.mode, report.entries, report.shots, report.seed


def _assert_scalars_and_matrix_agree(text):
    """The entries of a report the reference reads are Python ints and floats,
    and a complete full report scatters the reference's matrix, bit for bit
    (so a -0.0 estimate keeps its sign), before the checks of ``PTM``."""
    report = CharacterizedPTM.from_report_text(text)
    assert all(type(j) is type(k) is int and type(est) is type(err) is float
               for (j, k), (est, err) in report.entries.items())
    n, mode, entries, _, _ = report_from_text_reference(text)
    if mode == "full" and len(entries) == 16**n:
        with mock.patch.object(characterization, "PTM", lambda n, matrix: SimpleNamespace(matrix=matrix)):
            assert report.ptm().matrix.tobytes() == report_matrix_reference(n, entries).tobytes()


def _assert_agrees_with_the_reference(got, text):
    """``got`` is the reference's outcome, or the refusal ``_declared_refusal``
    names where that comes first."""
    expected = _outcome(report_from_text_reference, text)
    declared = _declared_refusal(text)
    failed_at = re.match(r"line (\d+):", expected[1]) if expected[0] is ParseError else None
    if declared is None or failed_at and int(failed_at.group(1)) <= declared[0]:
        assert got == expected
    else:
        assert got[0] is ParseError and got[1].startswith(declared[1]), (got, expected)


# Characters a chunk of read_text takes before its next newline: one line a
# chunk, a few lines, and the shipped budget.
CHUNK_BUDGETS = [0, 72, pauli.CHUNK_CHARS]


@settings(max_examples=300, deadline=None)
@given(text=report_texts(), chunk=st.sampled_from(CHUNK_BUDGETS), memo=st.sampled_from([1, MEMO_SIZE]))
def test_chunked_parser_agrees_with_the_row_by_row_reference(text, chunk, memo):
    with mock.patch.object(pauli, "CHUNK_CHARS", chunk), mock.patch.object(pauli, "MEMO_SIZE", memo):
        got = _outcome(_parse, text)
        if not isinstance(got[0], type):  # parsed, not refused
            _assert_scalars_and_matrix_agree(text)
    _assert_agrees_with_the_reference(got, text)


def _full_text(n, edit=None):
    """An exact full report of the identity on n qubits, with row ``edit[0]``
    (counted from the last row when negative) replaced by ``edit[1]``."""
    D = 4**n
    rows = [f"{j} {k} {float(j == k)!r} 0.0 0 0" for j in range(D) for k in range(D)]
    if edit:
        rows[edit[0]] = edit[1]
    return "\n".join([f"n {n}", "mode full", *rows]) + "\n"


@pytest.mark.parametrize("chunk", CHUNK_BUDGETS)
@pytest.mark.parametrize("text", [
    _full_text(2, (-1, "16 15 0.0 0.0 0 0")),
    _full_text(2, (-1, "15 -1 0.0 0.0 0 0")),
    _full_text(2, (0, "-1 0 1.0 0.0 0 0")),
    _full_text(2, (200, "3 16 0.0 0.0 0 0")),
    _full_text(2, (-1, "15 14 0.0 0.0 0 0")),
    _full_text(2, (-2, "15 15 1.0 0.0 0 0")),
    _full_text(2, (-1, "15 15 1.0 0.0 0 1")),
    _full_text(2, (-1, "15 15 inf 0.0 0 0")),
    _full_text(2, (-1, "15 15 1.0 -0.5 0 0")),
    _full_text(2, (-1, "15 15 1.0 0.0 0")),
    _full_text(3, (-1, "63 63 1.0 0.0 0 0 # last")),
    "n 1\nmode diagonal\n1 1 0.5 0.0 0 0\n2 2 0.5 0.0 0 0\n3 2 0.5 0.0 0 0\n",
    "n 1\nmode diagonal\n1 1 0.5 0.0 0 0\n2 2 0.5 0.0 0 0\n0 0 1.0 0.0 0 0\n",
    "mode diagonal\n1 1 0.5 0.0 0 0\n2 2 0.5 0.0 0 0\n3 3 0.5 0.0 0 0\nn 1\n",
    # each refusal below sits past its chunk's first line at 72 characters and the shipped budget
    _full_text(2, (101, "q 1")),
    _full_text(2, (101, "n 2")),
    _full_text(2, (-4, "mode full")),
    _full_text(2, (50, "1.5 2 0.0 0.0 0 0")),
    _full_text(2, (-1, "15 15 1.0 0.0 -1 0")),
    _full_text(2, (0, f"0 0 1.0 0.0 {MAX_SHOTS + 1} 0")),
    "n 1\nmode diagonal\n\n\n1 1 inf 0.0 0 0\n",
    # a line that fails several checks is named for the first in single-line order
    _full_text(2, (-1, "15 15 inf 0.0 x 0")),
    _full_text(2, (-1, "15 15 inf -0.5 -1 0")),
    _full_text(2, (-1, "15 15 1.0 -0.5 5 0")),
    _full_text(2, (-1, "0 0 1.0 0.0 0 1")),
    # j or k past int64, which only the range refuses
    "n 1\nmode diagonal\n1 1 0.5 0.0 0 0\n99999999999999999999 1 0.5 0.0 0 0\n1 1 0.5 0.0 0 0\n",
    "n 1\nmode diagonal\n1 99999999999999999999 0.5 0.0 0 0\n-99999999999999999999 1 0.5 0.0 0 0\n",
], ids=["j_past_the_end", "negative_k_last", "negative_j_first", "k_past_the_end", "repeat_last",
        "repeat_next_to_last", "seed_last", "inf_last", "negative_error_last", "five_fields_last",
        "comment_last", "off_diagonal_last", "zero_last", "header_last",
        "bad_header", "repeated_n", "repeated_mode", "malformed_j", "negative_shots_later",
        "first_row_shots_past_the_limit", "lone_row_among_blanks",
        "malformed_before_non_finite", "non_finite_before_negative", "negative_before_run", "run_before_repeat",
        "repeat_past_a_j_beyond_int64", "j_and_k_beyond_int64"])
def test_checks_hold_on_every_chunk_of_a_report(text, chunk):
    with mock.patch.object(pauli, "CHUNK_CHARS", chunk):
        got = _outcome(_parse, text)
    _assert_agrees_with_the_reference(got, text)


class TestPositivityCoefficients:
    def test_single_qubit_probe(self):
        S = positivity_certificates([probe_state(3, 1)])[0][0]
        assert np.allclose(S, [1.0, 1.0, 0.0], atol=1e-14)

    def test_two_qubit_probe(self):
        S = positivity_certificates([probe_state(15, 2)])[0][0]
        assert np.allclose(S, [1.0, 1.0, 0.25, 0.0, 0.0], atol=1e-14)

    def test_maximally_mixed(self):
        for n in (1, 2, 3):
            d = 2**n
            S = positivity_certificates([np.eye(d) / d])[0][0]
            assert all(s > 0 for s in S)

    def test_negative_eigenvalue_detected(self):
        S, passed = positivity_certificates([np.diag([1.5, -0.5])])[0]
        assert S[2] == pytest.approx(-0.75, abs=1e-14)
        assert not passed

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density(2, rng)
            # mix in occasional non-PSD perturbations
            if rng.uniform() < 0.5:
                rho = rho - 0.3 * np.eye(4) / 4
                rho = rho / np.trace(rho)
            psd_oracle = bool(np.min(np.linalg.eigvalsh(rho)) >= -1e-10)
            assert positivity_certificates([rho])[0][1] == psd_oracle

    @pytest.mark.parametrize("n", [4, 5])
    def test_negative_eigenvalue_detected_past_three_qubits(self, n):
        # Every S_m stays above PSD_TOL here: S_d is -0.01 times 15 (31)
        # eigenvalues of about 1/d.
        d = 2**n
        rho = np.diag([-0.01] + [1.01 / (d - 1)] * (d - 1))
        S, passed = positivity_certificates([rho])[0]
        assert min(S) > -1e-10
        assert not passed

    def test_probe_theorem_all_k(self):
        # S_m > 0 below delta = 1 + d/2, zero at and beyond, for every k
        for n in (1, 2, 3):
            d = 2**n
            delta = 1 + d // 2
            for k in range(1, 4**n):
                S = positivity_certificates([probe_state(k, n)])[0][0]
                assert all(s > 0 for s in S[:delta]), (n, k, S)
                assert all(abs(s) < 1e-10 for s in S[delta:]), (n, k, S)


def _mixed_stack(n, seed, count=40):
    """Seeded states of four kinds in turn: PSD, Hermitian but not PSD, not
    Hermitian, and PSD shifted by up to -0.02 (some just below zero)."""
    rng = np.random.default_rng(seed)
    d = 2**n
    states = []
    for i in range(count):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = [g @ g.conj().T, g + g.conj().T, g, g @ g.conj().T][i % 4]
        if i % 4 == 3:
            rho = rho / np.trace(rho).real - rng.uniform(0, 0.02) * np.eye(d)
        states.append(rho / np.trace(rho).real)
    return np.array(states)


def _reference(states):
    return [positivity_certificate_reference(rho, PSD_TOL, HERMITIAN_TOL) for rho in states]


class TestStackedCertificates:
    """A stack's certificates equal those of its states one at a time, bit
    for bit: every S_m and every verdict, compared with ==."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_probe_stack_matches_the_per_state_reference(self, n):
        probes = [probe_state(k, n) for k in range(1, 4**n)]
        got = positivity_certificates(probes)
        assert got == _reference(probes)
        assert all(ok for _, ok in got)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_stack_matches_the_per_state_reference(self, n, seed):
        states = _mixed_stack(n, seed)
        want = _reference(states)
        assert positivity_certificates(states) == want
        assert {ok for _, ok in want} == {True, False}

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_stack_of_one_matches_the_per_state_reference(self, n):
        for rho in _mixed_stack(n, 2, count=8):
            want = positivity_certificate_reference(rho, PSD_TOL, HERMITIAN_TOL)
            assert positivity_certificates(rho[None]) == [want]
            assert positivity_certificates([rho]) == [want]

    def test_a_non_finite_state_fails_alone(self):
        # eigvalsh runs only on the states that pass the Hermiticity and S_m checks
        states = _mixed_stack(2, 3, count=8)
        states[1, 0, 1] = np.nan
        states[6, 2, 2] = np.inf
        with np.errstate(invalid="ignore"):  # NaN and inf flow through the products, as one state alone
            got, want = positivity_certificates(states), _reference(states)
        assert not got[1][1] and not got[6][1]
        assert repr(got) == repr(want)

    def test_results_do_not_share_coefficient_lists(self):
        # the probes share one row of traces, so one recursion
        got = positivity_certificates([probe_state(k, 2) for k in range(1, 16)])
        got[0][0][1] = 7.0
        assert got[1][0][1] == 1.0

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 3), (1, 2, 3)])
    def test_refuses_what_is_not_a_stack_of_qubit_matrices(self, shape):
        with pytest.raises(DimensionMismatch):
            positivity_certificates(np.zeros(shape))

    def test_empty_stack(self):
        assert positivity_certificates(np.zeros((0, 4, 4))) == []
