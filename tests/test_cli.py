"""Command line interface: commands, exit codes, file round trips."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from csstensor import chain, cli, css, families, gf2, tensorops, verify
from csstensor.gf2 import BinMatrix
from csstensor.rand import random_css_code


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exact_complex_code_file(tmp_path) -> str:
    """A k = 0 code whose complex is exact (one X check, one Z check)."""
    code = css.from_matrices(
        BinMatrix.from_rows([[1, 0]]), BinMatrix.from_rows([[0, 1]])
    )
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(css.code_to_json(code, "exact")))
    return str(path)


class TestFamily:
    def test_steane_stdout_and_file(self, capsys, tmp_path):
        out_path = tmp_path / "steane.json"
        code, out, _ = run(capsys, "family", "steane", "--out", str(out_path))
        assert code == 0
        assert out.strip() == "n=7 k=1"
        loaded = css.code_from_json(json.loads(out_path.read_text()))
        assert loaded.n == 7

    def test_tz(self, capsys):
        code, out, _ = run(capsys, "family", "tz:hamming3,hamming3")
        assert code == 0 and out.strip() == "n=58 k=16"

    def test_tz_k_builds_no_product_row(self, capsys, monkeypatch):
        # k comes from the factors' homology: the product checks (n = 41
        # columns) stay supports, and no int row of them is built.  The
        # factors' transposes are supports too and may build theirs.
        real = gf2._SupportMatrix.data

        def unbuilt(self):
            if self.cols == 41:
                raise AssertionError("built an int row of a product check")
            return real.fget(self)

        monkeypatch.setattr(gf2._SupportMatrix, "data", property(unbuilt))
        assert run(capsys, "family", "tz:rep5,rep5") == (0, "n=41 k=1\n", "")

    def test_parse_error_exit_2(self, capsys):
        for spec, names in [
            ("bogus:spec", ["'bogus'"]),
            ("steane:m=9", ["'steane'", "'m'"]),
            ("hamming:m=3,m=4", ["'hamming'", "'m'"]),
            ("fg:pg,q=2,hz=incidence,hxx=none", ["'fg'", "'hxx'"]),
        ]:
            for argv in (["family", spec], ["sweep", spec, "--ell-max", "1"]):
                code, out, err = run(capsys, *argv)
                assert (code, out) == (2, "") and err.startswith("error:"), argv
                assert all(name in err for name in names), argv

    def test_construction_error_exit_3(self, capsys):
        code, _, err = run(capsys, "family", "rm:m=3,r1=1,r2=2")
        assert code == 3 and "overlap" in err

    def test_file_round_trip_bit_exact(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run(capsys, "family", "steane", "--out", str(first))
        loaded = css.code_from_json(json.loads(first.read_text()))
        second.write_text(
            json.dumps(css.code_to_json(loaded, "steane"), indent=2, sort_keys=True) + "\n"
        )
        assert first.read_bytes() == second.read_bytes()


class TestPower:
    def test_ell_one_byte_identical(self, capsys, tmp_path):
        base = tmp_path / "steane.json"
        out = tmp_path / "p1.json"
        run(capsys, "family", "steane", "--out", str(base))
        code, stdout, _ = run(capsys, "power", str(base), "--ell", "1", "--out", str(out))
        assert code == 0
        assert base.read_bytes() == out.read_bytes()

    def test_ell_two(self, capsys, tmp_path):
        base = tmp_path / "steane.json"
        run(capsys, "family", "steane", "--out", str(base))
        code, stdout, _ = run(capsys, "power", str(base), "--ell", "2")
        assert code == 0
        assert stdout.strip() == "predicted_n=67 actual_n=67 k=1"

    def test_ell_three_file_digest(self, capsys, tmp_path):
        """The code file of the Steane cube, pinned to the bytes written
        through json.dumps(indent=2, sort_keys=True) before the direct writer."""
        base = tmp_path / "steane.json"
        out = tmp_path / "p3.json"
        run(capsys, "family", "steane", "--out", str(base))
        code, _, _ = run(capsys, "power", str(base), "--ell", "3", "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "42b64a5e9195493d8994d19a6999affc26eb3a06ef86d2a3d0db9b5eb3bc8a5a"
        )

    def test_ell_four_file_digest(self, capsys, tmp_path):
        """The code file of the Steane l = 4 power (n = 8179), pinned to the
        bytes written through json.dumps(indent=2, sort_keys=True)."""
        base = tmp_path / "steane.json"
        out = tmp_path / "p4.json"
        run(capsys, "family", "steane", "--out", str(base))
        code, stdout, _ = run(capsys, "power", str(base), "--ell", "4", "--out", str(out))
        assert code == 0 and stdout == "predicted_n=8179 actual_n=8179 k=1\n"
        data = out.read_bytes()
        assert len(data) == 1_858_386
        assert hashlib.sha256(data).hexdigest() == (
            "959b2cd7cd61ad29454b1e16be9b09a0e42f04b378e9fb8e1860fa963b50c276"
        )

    def test_ell_four_builds_no_product_int_row(self, capsys, tmp_path, monkeypatch):
        """The l = 4 power is built and written from supports: no int row of
        the product is made, and, the loaded factor being supports too, no
        int row is walked at all."""
        base = tmp_path / "steane.json"
        out = tmp_path / "p4.json"
        run(capsys, "family", "steane", "--out", str(base))
        built, walked = [], []
        real_support_of = gf2._support_of

        def counting(bits):
            walked.append(bits.bit_length())
            return real_support_of(bits)

        real = gf2._SupportMatrix.data

        def refuse(self):
            # Only product-width (n = 8179) rows are refused: the factor's
            # transposes are supports too and may build theirs.
            if self.cols == 8179:
                built.append((self.rows, self.cols))
                raise AssertionError("int rows built")
            return real.fget(self)

        monkeypatch.setattr(gf2, "_support_of", counting)
        monkeypatch.setattr(gf2._SupportMatrix, "data", property(refuse))
        code, stdout, _ = run(capsys, "power", str(base), "--ell", "4", "--out", str(out))
        assert code == 0 and stdout == "predicted_n=8179 actual_n=8179 k=1\n"
        assert built == []
        assert walked == []
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "959b2cd7cd61ad29454b1e16be9b09a0e42f04b378e9fb8e1860fa963b50c276"
        )

    def test_ell_five_file_in_bounded_memory(self, tmp_path):
        """The l = 5 power (n = 95 557) is built and written by a child whose
        peak RSS stays under 200 MB; its int rows would take about 1.9 GB.
        The peak is the child's own VmHWM: the wait4 figure of a forked
        child is floored at the parent's high-water mark."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop(cli.RESOURCE_CEILING_ENV, None)
        base, out = tmp_path / "steane.json", tmp_path / "p5.json"
        base.write_text(json.dumps(css.code_to_json(families.steane(), "steane")))
        child = (
            "import sys\n"
            "from csstensor import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(l for l in fh if l.startswith('VmHWM')).split()[1], file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, "power", str(base), "--ell", "5", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "predicted_n=95557 actual_n=95557 k=1\n"
        assert int(proc.stderr.split()[-1]) < 200 * 1024
        # Row weights from the file's layout, one index per line, without
        # parsing 28.5 MB of JSON into lists.
        digest, weights, count = hashlib.sha256(), {"h_x": [], "h_z": []}, None
        with open(out, "rb") as fh:
            for line in fh:
                digest.update(line)
                if line.startswith(b'  "h_'):
                    rows = weights[line[3:6].decode()]
                elif line.startswith(b"      ["):
                    count = 0
                elif line.startswith(b"        "):
                    count += 1
                elif line.startswith(b"      ]"):
                    rows.append(count)
        assert [len(weights["h_x"]), len(weights["h_z"])] == [78135, 78135]
        assert {min(w) for w in weights.values()} == {8}
        assert {max(w) for w in weights.values()} == {16}
        assert out.stat().st_size == 28_507_749
        assert digest.hexdigest() == (
            "b7daeebfa5428689ce7fb20f9ef47b3152a9358b9882259f8f54716b0382e37d"
        )

    def test_k_matches_the_built_code(self, capsys, tmp_path):
        """k printed from the Kunneth convolution equals the ranks of the code."""
        bases = [
            families.parse_family_spec("cyclic:n=7,g1=1011,g2=1011"),
            # k = 0 with H_0 = H_2 = 1: the square has k = 2.
            css.from_matrices(BinMatrix.from_rows([[1, 0], [1, 0]]),
                              BinMatrix.from_rows([[0, 1], [0, 1]])),
            css.from_matrices(BinMatrix.from_rows([[1, 0]]), BinMatrix.from_rows([[0, 1]])),
        ]
        rng = random.Random(12)
        while len(bases) < 15:
            n = rng.randrange(2, 8)
            code = random_css_code(rng, n, rng.randrange(0, 3), rng.randrange(0, 3), min_k=0)
            h_x, h_z = code.h_x, code.h_z
            if h_x.rows and rng.random() < 0.6:  # a redundant X check
                h_x = BinMatrix(h_x.rows + 1, n, h_x.data + (h_x.data[0] ^ h_x.data[-1],))
            if h_z.rows and rng.random() < 0.6:
                h_z = BinMatrix(h_z.rows + 1, n, h_z.data + (h_z.data[0],))
            bases.append(css.from_matrices(h_x, h_z))
        assert {css.dimension_k(b) for b in bases} >= {0, 1}
        base_path, out = tmp_path / "base.json", tmp_path / "out.json"
        for base in bases:
            base_path.write_text(json.dumps(css.code_to_json(base)))
            for ell in (1, 2, 3):
                for flags in ((), ("--reduced",)):
                    code, stdout, _ = run(capsys, "power", str(base_path), "--ell", str(ell),
                                          "--out", str(out), *flags)
                    assert code == 0
                    built = css.code_from_json(json.loads(out.read_text()))
                    assert stdout.split()[2] == f"k={css.dimension_k(built)}", (base, ell, flags)

    def test_reduced_exact_input_empty_with_warning(self, capsys, tmp_path):
        path = exact_complex_code_file(tmp_path)
        code, stdout, err = run(capsys, "power", path, "--ell", "2", "--reduced")
        assert code == 0
        assert "actual_n=0" in stdout
        assert "warning" in err

    def test_empty_code_warns_only_when_reduced(self, capsys, tmp_path):
        """An n = 0 input: its full power is empty too, but only the
        reduced path is warned about."""
        path = tmp_path / "z.json"
        path.write_text(json.dumps(css.code_to_json(
            css.from_matrices(BinMatrix.zeros(0, 0), BinMatrix.zeros(0, 0)), "z")))
        code, stdout, err = run(capsys, "power", str(path), "--ell", "2")
        assert (code, stdout, err) == (0, "predicted_n=0 actual_n=0 k=0\n", "")
        code, stdout, err = run(capsys, "power", str(path), "--ell", "2", "--reduced")
        assert (code, stdout) == (0, "predicted_n=0 actual_n=0 k=0\n")
        assert err == "warning: reduced power is empty (exact input)\n"

    def test_reduced_power_built_once(self, capsys, tmp_path, monkeypatch):
        base = tmp_path / "steane.json"
        run(capsys, "family", "steane", "--out", str(base))
        builds = []
        real = tensorops._reduced_dims

        def counting(x, ell):
            builds.append(ell)
            return real(x, ell)

        monkeypatch.setattr(tensorops, "_reduced_dims", counting)
        code, stdout, _ = run(capsys, "power", str(base), "--ell", "2", "--reduced")
        assert code == 0
        assert stdout == "predicted_n=1 actual_n=1 k=1\n"
        assert builds == [2]

    # Reduced powers of fg:pg,q=2 (k = 0, end homology on both sides):
    # unlike Steane's [[1, 1, 1]], their end terms reach n.
    REDUCED_FG = {
        2: ("predicted_n=24 actual_n=24 k=24\n",
            "ccc5289d96ec1ac37ac20a7859bf459c3a0fc2691b1fceb7f455f7586959dd64"),
        3: ("predicted_n=84 actual_n=84 k=84\n",
            "dde5db36f82b37e71ef5512db067050d2315316027736fe7a9469f317c1b7a6b"),
        4: ("predicted_n=876 actual_n=876 k=876\n",
            "77808ababbaa83229336e49e7041b03cac3be3f710f91c46d7af5f2511f2b0e1"),
    }

    def reduced_fg_files(self, capsys, tmp_path, ells):
        base, out = tmp_path / "fg.json", tmp_path / "r.json"
        run(capsys, "family", "fg:pg,q=2", "--out", str(base))
        for ell in ells:
            code, stdout, _ = run(capsys, "power", str(base), "--ell", str(ell), "--reduced",
                                  "--out", str(out))
            assert code == 0
            assert (stdout, hashlib.sha256(out.read_bytes()).hexdigest()) == self.REDUCED_FG[ell]

    def test_reduced_file_digests(self, capsys, tmp_path):
        self.reduced_fg_files(capsys, tmp_path, (2, 3, 4))

    def test_reduced_power_builds_no_window(self, capsys, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a window was assembled")

        monkeypatch.setattr(chain, "tensor", never)
        monkeypatch.chdir(tmp_path)
        run(capsys, "family", "steane", "--out", "steane.json")
        code, stdout, _ = run(capsys, "power", "steane.json", "--ell", "3", "--reduced")
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "a24f100f27e40e87591d076ddf54c16ddb46ab55352aa345c60237029d747add"
        )
        self.reduced_fg_files(capsys, tmp_path, (4,))

    def test_resource_ceiling_exit_4(self, capsys, tmp_path, monkeypatch):
        base = tmp_path / "steane.json"
        run(capsys, "family", "steane", "--out", str(base))
        monkeypatch.setenv(cli.RESOURCE_CEILING_ENV, "100")
        code, _, err = run(capsys, "power", str(base), "--ell", "3")
        assert code == 4 and "ceiling" in err
        monkeypatch.setenv(cli.RESOURCE_CEILING_ENV, "6")
        code, _, err = run(capsys, "power", str(base), "--ell", "1")
        assert (code, err) == (4, "error: predicted n = 7 exceeds ceiling 6\n")

    def test_reduced_power_obeys_the_ceiling(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "family", "steane", "--out", "steane.json")
        run(capsys, "power", "steane.json", "--ell", "2", "--out", "sq.json")
        code, stdout, _ = run(capsys, "power", "sq.json", "--ell", "2", "--reduced")
        assert (code, stdout) == (0, "predicted_n=163 actual_n=163 k=163\n")
        monkeypatch.setenv(cli.RESOURCE_CEILING_ENV, "2")
        code, stdout, err = run(capsys, "power", "sq.json", "--ell", "2", "--reduced",
                                "--out", "r.json")
        assert (code, stdout) == (4, "")
        assert "predicted n = 163" in err and not Path("r.json").exists()

    def test_tensor_resource_ceiling_exit_4(self, capsys, tmp_path, monkeypatch):
        base = tmp_path / "steane.json"
        out = tmp_path / "sq.json"
        run(capsys, "family", "steane", "--out", str(base))
        monkeypatch.setenv(cli.RESOURCE_CEILING_ENV, "10")
        code, _, err = run(capsys, "tensor", str(base), str(base), "--out", str(out))
        assert code == 4 and "predicted n = 67" in err
        assert not out.exists()

    def test_malformed_ceiling_exit_2(self, capsys, tmp_path, monkeypatch):
        base = tmp_path / "steane.json"
        run(capsys, "family", "steane", "--out", str(base))
        for raw in ("10k", "0", "-5"):
            monkeypatch.setenv(cli.RESOURCE_CEILING_ENV, raw)
            code, _, err = run(capsys, "power", str(base), "--ell", "2")
            assert code == 2 and cli.RESOURCE_CEILING_ENV in err
            code, _, err = run(capsys, "sweep", "steane", "--ell-max", "1")
            assert code == 2 and cli.RESOURCE_CEILING_ENV in err


class TestTensor:
    def test_square(self, capsys, tmp_path):
        base = tmp_path / "steane.json"
        out = tmp_path / "sq.json"
        run(capsys, "family", "steane", "--out", str(base))
        code, stdout, _ = run(capsys, "tensor", str(base), str(base), "--out", str(out))
        assert code == 0 and stdout.strip() == "n=67 k=1"
        loaded = css.code_from_json(json.loads(out.read_text()))
        assert loaded.n == 67


class TestAnalyze:
    def test_steane(self, capsys, tmp_path):
        base = tmp_path / "steane.json"
        run(capsys, "family", "steane", "--out", str(base))
        code, stdout, _ = run(capsys, "analyze", str(base))
        assert code == 0
        report = json.loads(stdout)
        assert report["d_x"] == {"lower": 3, "upper": 3, "exact": True}
        assert report["d_z"]["exact"] is True
        assert report["degenerate"] is False

    def test_k_zero_distances_omitted(self, capsys, tmp_path):
        path = exact_complex_code_file(tmp_path)
        code, stdout, _ = run(capsys, "analyze", path)
        assert code == 0
        report = json.loads(stdout)
        assert report["k"] == 0 and report["d_x"] is None and report["d_z"] is None

    def test_out_file(self, capsys, tmp_path):
        base = tmp_path / "steane.json"
        out = tmp_path / "report.json"
        run(capsys, "family", "steane", "--out", str(base))
        code, stdout, _ = run(capsys, "analyze", str(base), "--out", str(out))
        assert code == 0 and stdout == ""
        report = json.loads(out.read_text())
        assert report["n"] == 7


class TestCriterion:
    def test_steane(self, capsys, tmp_path):
        base = tmp_path / "steane.json"
        run(capsys, "family", "steane", "--out", str(base))
        code, stdout, _ = run(capsys, "criterion", str(base))
        assert code == 0
        report = json.loads(stdout)
        assert report["holds"] is True
        assert report["d_x"] == 3 and report["stab_min_x"] == 4

    def test_k_zero_exit_3(self, capsys, tmp_path, monkeypatch):
        # No search runs: an uncapped stabilizer minimum of a large k = 0
        # code can take minutes, and there is no criterion to report.
        def never(*args, **kwargs):
            raise AssertionError("searched a k = 0 code")

        monkeypatch.setattr(css._Search, "run", never)
        path = exact_complex_code_file(tmp_path)
        code, _, err = run(capsys, "criterion", path)
        assert code == 3 and "k = 0" in err

    def test_projection_of_an_exact_analyze(self, capsys, tmp_path, monkeypatch):
        # The Steane file has h_x = h_z, so its mirror leaves one side to
        # build; the square's file has no factor record and no mirror.
        monkeypatch.chdir(tmp_path)
        run(capsys, "family", "steane", "--out", "steane.json")
        run(capsys, "power", "steane.json", "--ell", "2", "--out", "sq.json")
        built = []
        real = css._Side.__init__

        def counting(side, *args):
            built.append(side)
            real(side, *args)

        for path, sides in (("steane.json", 1), ("sq.json", 2)):
            with monkeypatch.context() as patch:
                patch.setattr(css._Side, "__init__", counting)
                built.clear()
                code, stdout, _ = run(capsys, "criterion", path)
            assert code == 0 and len(built) == sides
            report = css.analyze(cli._load(path)[1], exact_up_to=None)
            assert json.loads(stdout) == tensorops.criterion_to_json(report)


class TestSweep:
    def test_single_row_matches_analyze(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "steane", "--ell-max", "1", "--trials", "20"
        )
        assert code == 0
        lines = stdout.strip().split("\n")
        assert lines[0].startswith("ell,n,k,dx_lo,dx_hi,dx_exact")
        assert lines[1].startswith("1,7,1,3,3,true,3,3,true,4,4,4,false,")

    def test_stdout_deterministic_and_file_has_seconds(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ("sweep", "steane", "--ell-max", "1", "--trials", "20", "--out", str(out))
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        header = out.read_text().strip().split("\n")[0]
        assert header.endswith(",seconds")
        row = out.read_text().strip().split("\n")[1]
        assert row.rsplit(",", 1)[1] != ""

    def test_json_format(self, capsys):
        code, stdout, _ = run(
            capsys, "sweep", "steane", "--ell-max", "1", "--trials", "20",
            "--format", "json",
        )
        assert code == 0
        row = json.loads(stdout.strip().split("\n")[0])
        assert row["n"] == 7 and "seconds" not in row

    def test_json_file_is_stdout_with_seconds(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code, stdout, _ = run(
            capsys, "sweep", "steane", "--ell-max", "2", "--trials", "10",
            "--format", "json", "--out", str(out),
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert all(row.pop("seconds") >= 0 for row in rows)
        assert rows == [json.loads(line) for line in stdout.strip().split("\n")]
        assert [row["ell"] for row in rows] == [1, 2]

    def test_reduced_column_below_full(self, capsys):
        _, full, _ = run(capsys, "sweep", "steane", "--ell-max", "2", "--trials", "10")
        _, reduced, _ = run(
            capsys, "sweep", "steane", "--ell-max", "2", "--trials", "10", "--reduced"
        )
        full_n = [int(line.split(",")[1]) for line in full.strip().split("\n")[1:]]
        reduced_n = [int(line.split(",")[1]) for line in reduced.strip().split("\n")[1:]]
        assert all(r <= f for r, f in zip(reduced_n, full_n))
        assert reduced_n == [1, 1]


def _row_dropped(real, m):
    basis = real(m)
    return BinMatrix(basis.rows - 1, basis.cols, basis.data[1:]) if basis.rows else basis


def _corner_flipped(real, a, b):
    out = real(a, b)
    if out.rows and out.cols:
        return BinMatrix(out.rows, out.cols, (out.data[0] ^ 1,) + out.data[1:])
    return out


def _all_ones_maps(real, *factors, **window):
    w = real(*factors, **window)
    ones = [BinMatrix(b.rows, b.cols, (gf2._mask(b.cols),) * b.rows) for b in w.boundaries]
    return chain.ChainComplex(w.dims, tuple(ones))


def _bottom_raised(real, *profiles):
    out = real(*profiles)
    if len(profiles) == 2 and all(len(p) == 3 for p in profiles):
        return (out[0] + 1,) + out[1:]
    return out


def _bottom_homology_raised(real, x):
    dims = real(x).dims
    return chain.ChainComplex.zero((dims[0] + 1,) + dims[1:])


def _top_zeroed(real, x, ell, lo, hi):
    """Right dims and square-zero maps but the wrong k: only the homology
    check against the Kunneth convolution sees it."""
    w = real(x, ell, lo, hi)
    top = w.boundaries[-1]
    return chain.ChainComplex(w.dims, w.boundaries[:-1] + (BinMatrix.zeros(top.rows, top.cols),))


def _plus_50(real, c, d):
    return tuple(v + 50 for v in real(c, d))


def _search_plus_50(real, *args):
    res = real(*args)
    return res._replace(lower=res.lower + 50, upper=res.upper + 50)


# One fault of a primitive per property of ``verify``: (module, name,
# fault(real, *args), the properties of run_suite("fast", 101) that fail,
# in report order).  Each property's failure branch runs under some fault.
VERIFY_FAULTS = [
    pytest.param(gf2, "kernel_basis", _row_dropped, ("gf2/rank_nullity",), id="kernel_basis"),
    pytest.param(gf2, "rank", lambda real, m: real(m) + (m.cols > m.rows), (
        "gf2/rank_nullity", "gf2/rank_transpose", "chain/kunneth", "reduce_suite/crashed",
        "tensorops/power_length_matrices", "tensorops/kunneth_k"), id="rank"),
    pytest.param(gf2, "kron", _corner_flipped, ("gf2/mixed_product",), id="kron"),
    pytest.param(gf2, "rowspace_contains", lambda real, m, v: not real(m, v),
                 ("gf2/membership_vs_enumeration",), id="rowspace_contains"),
    pytest.param(chain, "tensor", _all_ones_maps, (
        "chain/tensor_valid", "chain/kunneth", "tensorops/power_length_matrices",
        "tensorops/kunneth_k"), id="tensor"),
    pytest.param(chain, "tensor_dims", _bottom_raised, ("chain/kunneth",), id="tensor_dims"),
    pytest.param(chain, "reduce", _bottom_homology_raised, (
        "chain/reduce_homology", "chain/reduce_dims", "chain/reduce_idempotent"), id="reduce"),
    pytest.param(tensorops, "power_length", lambda real, dims, ell: real(dims, ell) + (ell == 3),
                 ("tensorops/power_length_assembly", "tensorops/power_length_matrices"),
                 id="power_length"),
    pytest.param(tensorops, "power_complex_window", _top_zeroed,
                 ("tensorops/power_length_matrices",), id="power_complex_window"),
    pytest.param(css, "dimension_k", lambda real, code: real(code) + 1,
                 ("tensorops/kunneth_k",), id="dimension_k"),
    pytest.param(tensorops, "generic_lower_bound", _plus_50,
                 ("tensorops/generic_bound_sound",), id="generic_lower_bound"),
    pytest.param(tensorops, "known_comparison_bound", _plus_50,
                 ("tensorops/new_bound_ge_known",), id="known_comparison_bound"),
    pytest.param(css, "min_distance_exact", _search_plus_50,
                 ("tensorops/product_witness_bound",), id="min_distance_exact"),
]


class TestVerify:
    def test_fast_passes(self, capsys):
        code, stdout, _ = run(capsys, "verify", "fast")
        assert code == 0
        assert "FAIL" not in stdout

    @pytest.mark.parametrize("scale", ["fast", "full"])
    def test_fifteen_uniquely_named_properties(self, scale):
        # The benchmark's verify workload accepts a run only when it ends
        # "pass total: 15 properties".
        names = [r.name for r in verify.run_suite(scale, 101)]
        assert len(names) == 15 and len(set(names)) == 15

    def test_fixed_seed_identical_bytes(self, capsys):
        _, first, _ = run(capsys, "verify", "fast", "--seed", "7")
        _, second, _ = run(capsys, "verify", "fast", "--seed", "7")
        assert first == second

    @pytest.mark.parametrize("module, name, fault, failed", VERIFY_FAULTS)
    def test_fault_fails_its_properties(self, monkeypatch, module, name, fault, failed):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kw: fault(real, *args, **kw))
        results = verify.run_suite("fast", 101)
        assert tuple(r.name for r in results if not r.passed) == failed

    def test_every_property_has_a_fault(self):
        names = {r.name for r in verify.run_suite("fast", 101)}
        assert names <= {name for case in VERIFY_FAULTS for name in case.values[-1]}

    def test_misplaced_transposed_blocks_fail(self, capsys, monkeypatch):
        """Transposed blocks one row off: h_z keeps its rows, only out of order.

        The product stays orthogonal with the right k, so only the
        comparison with the window code in the soundness suite sees it."""
        true_rows = chain._boundary_rows

        def shifted(factors, src, tgt, transposed=False):
            rows = true_rows(factors, src, tgt, transposed)
            return rows[1:] + rows[:1] if transposed else rows

        monkeypatch.setattr(chain, "_boundary_rows", shifted)
        code, stdout, _ = run(capsys, "verify", "fast")
        assert code == 1
        failed = [line.split(":")[0] for line in stdout.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL tensorops/kunneth_k", "FAIL total"]
        assert stdout.splitlines()[-1] == "FAIL total: 15 properties"

    def test_crashed_suite_names_its_exception(self, capsys, monkeypatch):
        def broken_rank(m):
            raise ArithmeticError("rank\nunavailable")

        monkeypatch.setattr(gf2, "rank", broken_rank)
        code, stdout, _ = run(capsys, "verify", "fast")
        assert code == 1
        lines = stdout.splitlines()
        assert "FAIL gf2_properties/crashed: 0/1 (ArithmeticError: rank unavailable)" in lines
        assert lines[-1] == f"FAIL total: {len(lines) - 1} properties"


# sha256 of stdout for commands whose output every refactor must keep.
PINNED_STDOUT = [
    (("analyze", "steane.json"),
     "1eba12d7183eaf650b07bc02b5a2639d24b20a4b40d57f42111e2f55ba615c81"),
    (("analyze", "sq.json", "--exact-up-to", "9", "--trials", "50", "--seed", "101"),
     "237073b607873d6abb1ccbbdfc00d75999627aa86b52e54bcc60f5f095b37672"),
    # The kept distance is seeded with the lightest logical kernel row: the
    # two criterion digests moved from 3e7388f3... and 995b570e... with their
    # logical witnesses only, every value field kept.
    (("criterion", "steane.json"),
     "0a3f4c2775c1ac2a6d9a3024b7daff1bf3c047885ed740585a76426dae655677"),
    (("criterion", "sq.json"),
     "5e297b6fcac70f32d01d03010b88078bad8737302450551406d140d798850260"),
    (("sweep", "steane", "--ell-max", "3", "--weight-cap", "2", "--trials", "10",
      "--seed", "101"),
     "ab7d3181eeaebf87beab796e8d199b011ced672c12ab50cfc46d1cd81345826c"),
    # Renaming criterion_bound_sound to product_witness_bound is the only
    # change from 898b85fa522bab75a0e5a8aba15bf73cbd01d9ff0112f2ce2bb62cac773b099d.
    (("verify", "fast", "--seed", "101"),
     "c26fd1c0dd05f2d9359cdc5ccff1835509d0d994ef95338be2b03e04ff1e07fd"),
    (("sweep", "steane", "--ell-max", "3", "--weight-cap", "2", "--trials", "10",
      "--format", "json"),
     "f533e61151cb5806bc14e751ce0d5aede8e3b2888cc23a128ddf70e4a644f0b0"),
    (("sweep", "steane", "--ell-max", "2", "--reduced", "--trials", "10"),
     "d94d76830646b70690e034a686f5ba26f75f1a1e98bf36e4d9edd0abd65d4eb5"),
    # Redundant checks on both sides, so the machine's end sectors are active.
    (("sweep", "cyclic:n=7,g1=1011,g2=1011", "--ell-max", "2", "--weight-cap", "3",
      "--trials", "10"),
     "9c75d601a674a7f80847c75e664bb31d5baa7af8f9e2edcb30c396728f03dd85"),
    # Run under PINNED_ENV: the ell = 3 stage (n = 721) is a ceiling row, its
    # k and row weights blank (5d610ec1... while they read 0).
    (("sweep", "steane", "--ell-max", "3", "--weight-cap", "3", "--trials", "10"),
     "1ec42a273c52190175d9ed2f9faaef7a9520fca3c5c6a580f2711cec0385fe35"),
    (("power", "steane.json", "--ell", "1"),
     "7660e795b1a5eb6b7cc0ffdc14b56fd61f8210c002ee3ad668bea96dfa21e79f"),
    (("power", "steane.json", "--ell", "3", "--reduced"),
     "a24f100f27e40e87591d076ddf54c16ddb46ab55352aa345c60237029d747add"),
    # Reduced powers with end homology: n = 1, 33, 193.
    (("sweep", "cyclic:n=7,g1=1011,g2=1011", "--ell-max", "3", "--reduced", "--trials", "10"),
     "ca97da56a2b69db8721e29dcbd1c39841b184e3c4a1f74ff3daf00dd0134b1ce"),
    # Capped below d = 9: an inexact bracket on both sides.
    (("analyze", "sq.json", "--exact-up-to", "4", "--trials", "5"),
     "ae8714b7c473efb0e254109f5ef9ed99f3ececafbf704e50c877692663d4a19e"),
    # The timed unit of the verify-small benchmark.
    (("verify", "full", "--seed", "101"),
     "74a05a85032cb6925f2dcff52c57d32676e0b72ace659fde8c6254b6dfbe983f"),
]

# Environment settings of single pinned commands.
PINNED_ENV = {
    ("sweep", "steane", "--ell-max", "3", "--weight-cap", "3", "--trials", "10"):
        {cli.RESOURCE_CEILING_ENV: "70"},
}


class TestPinnedStdout:
    def test_digests(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "family", "steane", "--out", "steane.json")
        run(capsys, "power", "steane.json", "--ell", "2", "--out", "sq.json")
        for argv, digest in PINNED_STDOUT:
            with monkeypatch.context() as env:
                for name, value in PINNED_ENV.get(argv, {}).items():
                    env.setenv(name, value)
                code, stdout, _ = run(capsys, *argv)
            assert code == 0
            assert hashlib.sha256(stdout.encode()).hexdigest() == digest, argv


class TestErrorPaths:
    def test_missing_file_exit_3(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/path.json")
        assert code == 3 and "error" in err

    @pytest.mark.parametrize("text, field", [
        ('{"n": 3}', "h_x"),
        ('{"h_x": {"rows": 1, "cols": 3, "support": 5},'
         ' "h_z": {"rows": 0, "cols": 3, "support": []}}', "h_x"),
        ("[1, 2]", "JSON object"),
    ], ids=["missing-field", "support-not-a-list", "top-level-array"])
    def test_malformed_code_file_exit_3(self, capsys, tmp_path, text, field):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 3
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, text", [
        (["family", "cyclic:n=7,g1=111,g2=1011"], None),
        (["analyze", "cut.json"], '{"h_x": {"rows": 1'),
    ], ids=["non-divisor", "truncated-json"])
    def test_construction_errors_exit_3(self, capsys, tmp_path, monkeypatch, argv, text):
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / "cut.json").write_text(text)
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["power", "input.json"])  # missing required --ell
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["power", "input.json", "--ell", "0"],
        ["power", "input.json", "--ell", "-2"],
        ["sweep", "steane", "--ell-max", "0"],
        ["sweep", "steane", "--ell-max", "2", "--trials", "0"],
        ["analyze", "input.json", "--trials", "-1"],
        ["sweep", "steane", "--ell-max", "two"],
        ["analyze", "input.json", "--time-budget", "nan"],
        ["analyze", "input.json", "--time-budget", "0"],
        ["sweep", "steane", "--ell-max", "2", "--time-budget", "-1"],
        ["sweep", "steane", "--ell-max", "2", "--time-budget", "-inf"],
        ["analyze", "input.json", "--exact-up-to", "-1"],
        ["sweep", "steane", "--ell-max", "2", "--weight-cap", "-3"],
    ], ids=["ell-0", "ell-negative", "ell-max-0", "sweep-trials-0",
            "analyze-trials-negative", "ell-max-not-int", "analyze-budget-nan",
            "analyze-budget-0", "sweep-budget-negative", "sweep-budget-minus-inf",
            "exact-up-to-negative", "weight-cap-negative"])
    def test_nonpositive_count_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error: argument --" in capsys.readouterr().err

    def test_budget_and_cap_limits_accepted(self):
        parser = cli.build_parser()
        args = parser.parse_args(["analyze", "in.json", "--time-budget", "inf",
                                  "--exact-up-to", "0"])
        assert args.time_budget == float("inf") and args.exact_up_to == 0
        args = parser.parse_args(["sweep", "steane", "--ell-max", "1", "--time-budget",
                                  "0.5", "--weight-cap", "0"])
        assert args.time_budget == 0.5 and args.weight_cap == 0


def test_import_adds_no_heavy_modules():
    """``import csstensor.cli`` in a fresh interpreter loads no ``dataclasses``,
    ``inspect`` or ``typing``: every CLI run pays for its imports."""
    src = Path(cli.__file__).resolve().parent.parent
    probe = (
        "import sys; before = set(sys.modules); import csstensor.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "csstensor.cli" in out
    assert {"dataclasses", "inspect", "typing"} & set(out) == set()
