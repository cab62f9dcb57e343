import csv
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from thmc.cli import main
from thmc.words import Word, state_graph, word_count


def run(tmp_path, *argv):
    rc = main([str(a) for a in argv])
    return rc, tmp_path


@pytest.fixture
def data_file(tmp_path):
    p = tmp_path / "data.words"
    p.write_text("12132\n12321\n12132\n# comment line\n\n")
    return p


class TestGenMatrix:
    def test_csv_matches_library(self, tmp_path):
        rc, _ = run(tmp_path, "gen-matrix", "-S", 3, "-T", 4, "--format", "both",
                    "--out-dir", tmp_path)
        assert rc == 0
        rows = list(csv.reader(open(tmp_path / "design-S3-T4.csv")))
        assert len(rows) == 7
        assert rows[0][1:5] == ["1212", "1213", "1231", "1232"]
        doc = json.loads((tmp_path / "design-S3-T4.json").read_text())
        assert doc["S"] == 3 and len(doc["columns"]) == 24
        manifest = json.loads((tmp_path / "gen-matrix-manifest.json").read_text())
        assert manifest["ok"] and manifest["command"] == "gen-matrix"

    def test_general_S(self, tmp_path):
        rc, _ = run(tmp_path, "gen-matrix", "-S", 5, "-T", 3, "--out-dir", tmp_path)
        assert rc == 0
        rows = list(csv.reader(open(tmp_path / "design-S5-T3.csv")))
        assert len(rows) == 21  # 20 ordered pairs + header
        assert len(rows[0]) == 81  # 80 words + row label


class TestStats:
    def test_marginal(self, tmp_path, data_file):
        rc, _ = run(tmp_path, "stats", data_file, "--out-dir", tmp_path)
        assert rc == 0
        doc = json.loads((tmp_path / "stats.json").read_text())
        assert doc["n"] == 3 and doc["T"] == 5
        assert sum(doc["marginal"]) == 3 * 4
        manifest = json.loads((tmp_path / "stats-manifest.json").read_text())
        assert str(data_file) in manifest["input_digests"]

    def test_past_word_cap(self, tmp_path):
        # 3 * 2**20 words of length 21: the marginal is summed from the data
        # words alone, so no word list is built
        assert word_count(3, 21) > 2**20
        rng = random.Random(21)
        W = Counter()
        for _ in range(5):
            w = [rng.choice((1, 2, 3))]
            while len(w) < 21:
                w.append(rng.choice([s for s in (1, 2, 3) if s != w[-1]]))
            W[Word(w)] += 1
        data = tmp_path / "long.words"
        data.write_text("".join(f"{w.text}\n" for w in W.elements()))
        rc, _ = run(tmp_path, "stats", data, "--out-dir", tmp_path)
        assert rc == 0
        doc = json.loads((tmp_path / "stats.json").read_text())
        assert doc["T"] == 21 and doc["n"] == 5
        assert doc["row_order"] == ["12", "13", "21", "23", "31", "32"]
        assert doc["marginal"] == list(state_graph(W, 3))


class TestChecksExitCodes:
    def test_facets_certify(self, tmp_path):
        rc, _ = run(tmp_path, "facets", "-T", 5, "--action", "certify",
                    "--out-dir", tmp_path)
        assert rc == 0
        certs = json.loads((tmp_path / "facet-certificates-T5.json").read_text())
        assert len(certs) == 4 and all(c["valid"] for c in certs)

    def test_lemmas(self, tmp_path):
        rc, _ = run(tmp_path, "lemmas", "--max-k", 1, "--out-dir", tmp_path)
        assert rc == 0

    def test_normality(self, tmp_path):
        rc, _ = run(tmp_path, "normality", "-T", 4, "--n-max", 2, "--witnesses",
                    "--out-dir", tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "normality-T4.json").read_text())
        assert rep["ok"] and rep["failures"] == []
        assert Path(rep["witnesses_file"]).exists()

    def test_hull(self, tmp_path):
        # T = 24 has 25,165,824 words; the hull reads only the distinct columns
        for T in (5, 24):
            rc, _ = run(tmp_path, "hull", "-T", T, "--out-dir", tmp_path)
            assert rc == 0
            doc = json.loads((tmp_path / f"hull-T{T}.json").read_text())
            assert doc["facet_count"] == 24

    def test_markov(self, tmp_path):
        rc, _ = run(tmp_path, "markov", "-T", 3, "--max-degree", 2, "--n-max", 2,
                    "--out-dir", tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "markov-T3.json").read_text())
        assert rep["connectivity_ok"]
        assert "degree <= 2" in rep["caveat"]
        assert (tmp_path / "moves-T3.txt").read_text().strip()
        assert rep["connectivity_by_construction"]
        assert "by construction" in rep["caveat"]

    def test_markov_above_max_degree_is_not_by_construction(self, tmp_path, capsys):
        # degree-1 moves leave a degree-2 fiber of T=3 disconnected
        rc, _ = run(tmp_path, "markov", "-T", 3, "--max-degree", 1, "--n-max", 2,
                    "--out-dir", tmp_path)
        assert rc == 1
        rep = json.loads((tmp_path / "markov-T3.json").read_text())
        assert not rep["connectivity_ok"]
        assert rep["connectivity_by_construction"] is False
        assert "degree <= 2" in rep["caveat"] and "by construction" not in rep["caveat"]
        # without connectivity no basis is built: no size and no degree
        assert rep["minimal_basis_size"] is None
        assert rep["minimal_basis_max_degree"] is None
        out = capsys.readouterr().out
        assert "no minimal basis built" in out and "0 moves" not in out
        # nor a moves file, which would read like a basis of no moves
        assert not list(tmp_path.glob("moves-T3*"))
        manifest = json.loads((tmp_path / "markov-manifest.json").read_text())
        assert manifest["outputs"] == [str(tmp_path / "markov-T3.json")]


class TestManifest:
    def test_wall_clock_ignores_a_clock_step(self, tmp_path, monkeypatch):
        # the wall clock steps back an hour at every read; the run time must
        # come from a monotonic clock, so it cannot read negative
        import time

        now = [time.time()]

        def stepping_back():
            now[0] -= 3600
            return now[0]

        monkeypatch.setattr(time, "time", stepping_back)
        rc, _ = run(tmp_path, "gen-matrix", "-S", 3, "-T", 3, "--out-dir", tmp_path)
        monkeypatch.undo()
        assert rc == 0
        manifest = json.loads((tmp_path / "gen-matrix-manifest.json").read_text())
        assert manifest["wall_clock_s"] >= 0


class TestMarkovOutputs:
    # sha256 of the moves files, as the all-pairs enumeration wrote them
    MOVES_SHA256 = {
        3: ("314f2f8fcd77f3536eccb89b067c6c75a64c25116f3ad63cb6453feb08443c24",
            "71fe117eaba13271870b7e4e528f99d25e6b59cb63e81a9190ca8258ead09748"),
        4: ("b5cbb8ca88d7e1a64c4a45f50f110caf31aece175d7e35c868b832505d2e68cd",
            "d3603ca6662ecf5851b3428b03184a14ba73f0e332cd28f8e7c71cbc5a906123"),
        5: ("a7e0e80a32b436c791bcdf6fd79b2e70cb761fbbae9f2720818263d957acc850",
            "ac58b685b73bae53e2de7fdecc8305c7407a573efd76985e92fb111459b9942e"),
    }

    @pytest.mark.parametrize("T", sorted(MOVES_SHA256))
    def test_moves_files_are_pinned(self, tmp_path, T):
        rc, _ = run(tmp_path, "markov", "-T", T, "--max-degree", 2, "--n-max", 2,
                    "--moves-format", "both", "--out-dir", tmp_path)
        assert rc == 0
        digests = tuple(
            hashlib.sha256((tmp_path / f"moves-T{T}.{ext}").read_bytes()).hexdigest()
            for ext in ("txt", "json")
        )
        assert digests == self.MOVES_SHA256[T]


class TestWalkAndFit:
    def test_walk_trace(self, tmp_path, data_file):
        rc, _ = run(tmp_path, "walk", data_file, "--steps", 200, "--seed", 1,
                    "--thin", 10, "--out-dir", tmp_path)
        assert rc == 0
        lines = (tmp_path / "walk-trace.csv").read_text().splitlines()
        assert lines[0] == "step,table"
        assert len(lines) == 21
        assert all(len(line.split(",")[1].split()) == 3 for line in lines[1:])

    def test_test_fit_deterministic(self, tmp_path, data_file):
        rc1, _ = run(tmp_path / "a", "test-fit", data_file, "--steps", 2000,
                     "--seed", 7, "--out-dir", tmp_path / "a")
        rc2, _ = run(tmp_path / "b", "test-fit", data_file, "--steps", 2000,
                     "--seed", 7, "--out-dir", tmp_path / "b")
        assert rc1 == rc2 == 0
        d1 = json.loads((tmp_path / "a" / "testfit.json").read_text())
        d2 = json.loads((tmp_path / "b" / "testfit.json").read_text())
        assert d1 == d2
        assert 0 <= d1["p_value"] <= 1
        assert d1["observed_exact"]

    def test_moves_file_input(self, tmp_path, data_file):
        rc, _ = run(tmp_path, "markov", "-T", 5, "--max-degree", 2, "--n-max", 2,
                    "--out-dir", tmp_path)
        assert rc == 0
        rc, _ = run(tmp_path, "test-fit", data_file, "--moves-file",
                    tmp_path / "moves-T5.txt", "--steps", 1000, "--seed", 3,
                    "--burn-in", 100, "--out-dir", tmp_path)
        assert rc == 0

    def test_g2_statistic(self, tmp_path, data_file):
        rc, _ = run(tmp_path, "test-fit", data_file, "--steps", 500, "--seed", 5,
                    "--burn-in", 50, "--statistic", "g2", "--out-dir", tmp_path)
        assert rc == 0
        doc = json.loads((tmp_path / "testfit.json").read_text())
        assert doc["statistic"] == "g2" and doc["observed_exact"] is None


def seeded_words(path, seed, T=5, n=30):
    """n uniform random T-step words without self-loops, one per line."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n):
        w = [rng.randint(1, 3)]
        while len(w) < T:
            w.append(rng.choice([s for s in (1, 2, 3) if s != w[-1]]))
        lines.append("".join(map(str, w)) + "\n")
    path.write_text("".join(lines))
    return path


class TestWalkOutputsArePinned:
    # sha256 of each output file on 30 seeded T=5 words (5,000 steps,
    # burn-in 500, default basis), as the walk wrote them when it drew its
    # proposals with random.Random.randrange
    DIGESTS = {
        (1, "pearson"): ("98e6ba6d189fe682cad4722daff3dc82456a45d22b0056a93ac20e4d54be415e",
                         "10f62f300d8e94781dfef9613859022a556a64f93ab8312c7e7ae44c35013a8e"),
        (1, "g2"): ("11a76b3ef4b9d94d5d4fd2812020e850a5c866392a9fbe50257bf8a766e1604f",
                    "3a59b4e734313a4e695a1b7d484b1ea13985ebedfc7ecc29984400c4cfa8a539"),
        (1, "walk"): ("ccccfef04f431cae25680f8a8e51ff254e46df7791404ef004f0da103619cc6e",),
        (2, "pearson"): ("e8aaf67c12055605c569ac03ec67c67085638876066786ac7c7383ccd54b545c",
                         "981309575e6a62de174e984a9a3d5110632291445e617c725b4ba2e9a3687c16"),
        (2, "g2"): ("9d74be1ea7be59f1edb5a93ad19157021c4a2b9fb7bfc12ebf24a385986eae6b",
                    "59aa35975d5f56478010a94ed53cb5ba7047a8f93db73564eceddc11528dc7cd"),
        (2, "walk"): ("0565dd55eb108aa08c9d23cf57a39998884b9a56b0d463614cee7bca46d7c6be",),
        (3, "pearson"): ("3f6e13bb7c33b6a4c2d7ed36d667b4b1f40329bac648a8b754f0c7045c829c5a",
                         "b8913ce1548e02bbf643b7b01ef21d5966be8cd8d6f3cb3cc14250f418976416"),
        (3, "g2"): ("663c4c54312cb303907e471bd4db671912086514995b82a0f71614fd5d3c2d12",
                    "2ac7fb219446ecd7ba6fed4f98716258b0ecadabdae982d712128dc15ad8336b"),
        (3, "walk"): ("8e2b9965b06f68a766eed079e2e62b3d12603fd1bc27f2cdb92bc2cf4827909c",),
    }

    @pytest.mark.parametrize("seed,command", sorted(DIGESTS))
    def test_outputs_are_pinned(self, tmp_path, seed, command):
        data = seeded_words(tmp_path / "data.words", seed)
        common = ["--steps", 5000, "--burn-in", 500, "--seed", seed, "--out-dir", tmp_path]
        if command == "walk":
            argv, names = ["walk", data, *common], ("walk-trace.csv",)
        else:
            argv = ["test-fit", data, "--statistic", command, "--trace", *common]
            names = ("testfit.json", "testfit-trace.csv")
        rc, _ = run(tmp_path, *argv)
        assert rc == 0
        digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                        for name in names)
        assert digests == self.DIGESTS[seed, command]


class TestOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ("facets", "--threads", 2),
            ("lemmas", "--word-cap", 10),
            ("hull", "-T", 5, "--multiset-cap", 10),
            ("normality", "-T", 4, "--word-cap", 10),
            ("markov", "-T", 3, "--threads", 2),
            ("normality", "-T", 4, "--threads", 2),
            ("hull", "-T", 5, "--word-cap", 10),
            ("stats", "x.words", "--word-cap", 10),
        ],
    )
    def test_unread_option_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        assert exc.value.code == 2

    def test_normality_reports_orbits(self, tmp_path, capsys):
        # the counters of the sumset comparison: points checked, key sums formed
        rc, _ = run(tmp_path, "normality", "-T", 5, "--n-max", 2, "--out-dir", tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "normality-T5.json").read_text())
        manifest = json.loads((tmp_path / "normality-manifest.json").read_text())
        assert 0 < rep["points_checked"] < rep["sums"]
        assert "orbits" not in rep and "undecided" not in rep
        assert manifest["counters"] == {
            "saturation_points": rep["points_checked"],
            "sums": rep["sums"],
        }
        assert capsys.readouterr().out.strip() == (
            f"T=5 n<=2: {rep['points_checked']} saturation points, 0 failures, "
            "bounded: degrees n <= 2 only; n <= 4 would decide every degree PASS"
        )

    def test_normality_exact(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "normality", "-T", 4, "--n-max", 4, "--out-dir", tmp_path)
        assert rc == 0
        rep = json.loads((tmp_path / "normality-T4.json").read_text())
        assert rep["exact"] and rep["polytope_dim"] == 5
        assert capsys.readouterr().out.strip().endswith(
            "0 failures, exact: dim P = 5, so n <= 4 decides every degree "
            "(Bruns-Gubeladze-Trung 1997, Thm 1.3.3) PASS"
        )


class TestEnv:
    def test_bad_mixed_lengths(self, tmp_path):
        p = tmp_path / "bad.words"
        p.write_text("121\n1212\n")
        assert main(["stats", str(p), "--out-dir", str(tmp_path)]) == 2


class TestInputErrors:
    """Input errors exit 2 with a one-line message on stderr."""

    @pytest.mark.parametrize(
        "words, moves, extra",
        [
            ("12a21\n", None, ()),
            ("12132\n12321\n", "+12132 +12321 | -99999 -13212\n", ()),
            ("12132\n12321\n", "+1213 | -1231\n", ()),
            ("12132\n12321\n", "+12132 | -12321\n", ()),
            ("121\n1212\n", None, ()),
            ("12132\n12321\n", None, ("--steps", 5, "--burn-in", 10)),
            ("12132\n12321\n", None, ("--thin", 0)),
            ("12132\n12321\n", "", ()),
            ("12132\n12321\n", "# no moves here\n\n", ()),
            ("12132\n12321\n", None, ("--burn-in", -1)),
            # T=2: every fiber is a single table, so the default basis is empty
            ("12\n21\n13\n", None, ()),
        ],
    )
    @pytest.mark.parametrize("command", ["walk", "test-fit"])
    def test_walk_inputs(self, tmp_path, capsys, command, words, moves, extra):
        data = tmp_path / "data.words"
        data.write_text(words)
        argv = [command, data, "--steps", 50, "--burn-in", 0, *extra]
        if moves is not None:
            (tmp_path / "bad.moves").write_text(moves)
            argv += ["--moves-file", tmp_path / "bad.moves"]
        rc, _ = run(tmp_path, *argv, "--out-dir", tmp_path / "new")
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "new").exists()

    def test_no_out_dir_left_behind(self, tmp_path):
        data = tmp_path / "bad.words"
        data.write_text("12a21\n")
        rc, _ = run(tmp_path, "walk", data, "--out-dir", tmp_path / "new")
        assert rc == 2
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-matrix", "-T", 1),
            ("gen-matrix", "-S", 1, "-T", 3),
            ("normality", "-T", 1),
            ("markov", "-T", 1),
            ("hull", "-T", 1),
            ("facets", "-T", 3, "--action", "certify"),
            ("facets", "-T", 4, "--action", "verify24"),
        ],
    )
    def test_sizes_out_of_range(self, tmp_path, capsys, argv):
        rc, _ = run(tmp_path, *argv, "--out-dir", tmp_path / "new")
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-matrix", "-T", 30),
            # at T = 36 the 2,467,038 points of 4P alone pass the 2M point cap
            ("normality", "-T", 36, "--n-max", 4),
            # 5^42 >= 2^63: the int64 keys of the normality check would wrap
            ("normality", "-S", 7, "-T", 3),
            ("markov", "-T", 4, "--multiset-cap", 5),
        ],
    )
    def test_caps_exit_cleanly(self, tmp_path, capsys, argv):
        rc, _ = run(tmp_path, *argv, "--out-dir", tmp_path / "new")
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeds cap" in err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("hull", "-T", 5),
            ("gen-matrix", "-T", 4),
            ("test-fit", "DATA", "--steps", 50, "--burn-in", 0),
        ],
    )
    def test_unwritable_out_dir(self, tmp_path, capsys, data_file, argv):
        # an out-dir under a regular file cannot be made
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        argv = [data_file if a == "DATA" else a for a in argv]
        rc, _ = run(tmp_path, *argv, "--out-dir", blocker / "x")
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_saturation_cap_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        import thmc.normality

        monkeypatch.setattr(thmc.normality, "DEFAULT_POINT_CAP", 10)
        rc, _ = run(tmp_path, "normality", "-T", 4, "--out-dir", tmp_path / "new")
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("markov", "-T", 3, "--n-max", 0),
            ("normality", "-T", 4, "--n-max", 0),
            ("markov", "-T", 3, "--max-degree", 0),
            ("lemmas", "--max-k", 0),
        ],
    )
    def test_degrees_out_of_range(self, tmp_path, capsys, argv):
        rc, _ = run(tmp_path, *argv, "--out-dir", tmp_path / "new")
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "new").exists()

    def test_smallest_hull(self, tmp_path):
        rc, _ = run(tmp_path, "hull", "-T", 2, "--out-dir", tmp_path)
        assert rc == 0 and (tmp_path / "hull-T2.json").exists()

    @pytest.mark.parametrize("text", ["12a21\n", "121\n1212\n", "", "1201\n"])
    def test_stats(self, tmp_path, capsys, text):
        data = tmp_path / "data.words"
        data.write_text(text)
        rc, _ = run(tmp_path, "stats", data, "--out-dir", tmp_path)
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1

    def test_hull_pair_cap_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        import thmc.polytope
        from thmc.facets import model_hull

        monkeypatch.setattr(thmc.polytope, "DD_PAIR_CAP", 10)
        model_hull.cache_clear()
        rc, _ = run(tmp_path, "normality", "-S", 4, "-T", 4, "--out-dir", tmp_path / "new")
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "ray pairs exceeds cap 10" in err
        assert not (tmp_path / "new").exists()


class TestNewFormats:
    def test_moves_json_format(self, tmp_path):
        rc, _ = run(tmp_path, "markov", "-T", 3, "--max-degree", 2, "--n-max", 2,
                    "--moves-format", "both", "--out-dir", tmp_path)
        assert rc == 0
        doc = json.loads((tmp_path / "moves-T3.json").read_text())
        assert doc and all("degree" in z and "plus" in z for z in doc)

    def test_statistic_trace(self, tmp_path, data_file):
        rc, _ = run(tmp_path, "test-fit", data_file, "--steps", 400, "--seed", 2,
                    "--burn-in", 100, "--thin", 3, "--trace", "--out-dir", tmp_path)
        assert rc == 0
        lines = (tmp_path / "testfit-trace.csv").read_text().splitlines()
        assert lines[0] == "step,statistic"
        assert len(lines) == 101

    @pytest.mark.parametrize("statistic", ["pearson", "g2"])
    def test_statistic_trace_is_one_walk(self, tmp_path, data_file, monkeypatch, statistic):
        # the trace comes from the test's own pass: one walk (one run of the
        # stepping generator that every walk goes through), and each line is
        # the statistic of that step's table scored from scratch
        import thmc.cli
        import thmc.mcmc
        from thmc.design import get_design
        from thmc.markov import minimal_markov_basis
        from thmc.mcmc import WalkConfig, as_table, chi_square_statistic, g2_statistic, walk
        from thmc.words import read_words

        walks = []
        steps = thmc.mcmc._steps

        def counted(*args):
            walks.append(args)
            return steps(*args)

        monkeypatch.setattr(thmc.mcmc, "_steps", counted)
        # and any copy of the name the command module holds
        monkeypatch.setattr(thmc.cli, "_steps", counted, raising=False)
        rc, _ = run(tmp_path, "test-fit", data_file, "--steps", 400, "--seed", 2,
                    "--burn-in", 100, "--thin", 3, "--statistic", statistic,
                    "--trace", "--out-dir", tmp_path)
        assert rc == 0 and len(walks) == 1
        monkeypatch.undo()
        A = get_design(3, 5)
        t0 = as_table(read_words(data_file.read_text().splitlines()), A)
        cfg = WalkConfig(seed=2, steps=400, burn_in=100, thinning=3)
        score = chi_square_statistic if statistic == "pearson" else g2_statistic
        expected = ["step,statistic"] + [
            f"{step},{float(score(state, A))!r}"
            for step, state in enumerate(walk(t0, minimal_markov_basis(A, 2, 2), cfg, A))
            if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thinning == 0
        ]
        assert (tmp_path / "testfit-trace.csv").read_text().splitlines() == expected
