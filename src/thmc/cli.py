"""Command-line surface: reproducible runs with machine-readable outputs.

Every command writes its artifacts plus a run manifest (parameters, input
digests, wall clock, output paths) into the output directory and exits 0
exactly when all checks it ran passed.  Numeric payloads are serialized as
exact integer/fraction strings; only the sampling statistics of test-fit
carry floats.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import lru_cache
from pathlib import Path

from . import __version__
from .design import get_design
from .facets import (
    certify_all,
    model_hull,
    verify_facet_completeness,
    verify_known_vertices,
    verify_window_inequalities,
)
from .markov import (
    DEFAULT_MULTISET_CAP,
    enumerate_moves,
    is_markov_basis,
    minimal_markov_basis,
    moves_from_text,
    moves_to_json_dict,
    moves_to_text,
    verify_kernel,
)
from .mcmc import STATISTICS, WalkConfig, exact_test, kept_tables
from .normality import check_normality, s4_nonnormality_probe
from .polytope import vertex_enumeration
from .words import DEFAULT_WORD_CAP, CapExceededError, pair_list, read_words, state_graph


class InputError(Exception):
    """Unreadable or malformed command input: `main` prints it and exits 2.

    A CapExceededError (a size past --word-cap, --multiset-cap, DD_PAIR_CAP
    or the point cap of `normality`: at most 2,000,000 prefixes per level of
    the one listing of every degree n <= --n-max, so at most that many points
    over all those degrees) takes the same way out, as does an OSError while
    writing outputs (an --out-dir that cannot be made or written)."""


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """Collects outputs and writes the manifest on close."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.out_dir = Path(args.out_dir)
        self.params = {
            k: v for k, v in vars(args).items() if k not in ("func",) and v is not None
        }
        self.inputs = {}
        self.outputs: list[str] = []
        self.counters: dict[str, int] = {}
        # a monotonic clock, so a step of the wall clock cannot skew the run time
        self.t0 = time.perf_counter()

    def read_input(self, path: str) -> str:
        p = Path(path)
        self.inputs[str(p)] = _digest(p)
        return p.read_text()

    def file(self, name: str) -> Path:
        """Path of a file in the output directory, made on the first write so
        that a run stopped by bad input leaves nothing behind."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def write(self, name: str, payload: str) -> Path:
        p = self.file(name)
        p.write_text(payload)
        self.outputs.append(str(p))
        return p

    def write_json(self, name: str, doc) -> Path:
        return self.write(name, json.dumps(doc, indent=1, default=str) + "\n")

    def finish(self, ok: bool) -> int:
        manifest = {
            "command": self.command,
            "version": __version__,
            "parameters": self.params,
            "input_digests": self.inputs,
            "wall_clock_s": round(time.perf_counter() - self.t0, 3),
            "counters": self.counters,
            "outputs": self.outputs,
            "ok": ok,
        }
        path = self.file(f"{self.command}-manifest.json")
        path.write_text(json.dumps(manifest, indent=1, default=str) + "\n")
        return 0 if ok else 1


def _read_input(run: Run, path: str, parse):
    """parse(text) of an input file, with any read or parse error as InputError."""
    try:
        return parse(run.read_input(path))
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _read_data(run: Run, path: str, S=None):
    """Word multiset of a data file and its common word length."""
    multiset = _read_input(run, path, lambda text: read_words(text.splitlines(), S=S))
    lengths = {len(w) for w in multiset}
    if len(lengths) != 1:
        problem = "data words have mixed lengths" if lengths else "no data words"
        raise InputError(f"{path}: {problem}")
    return multiset, lengths.pop()


def _check_sizes(args, min_T: int = 2) -> None:
    """InputError unless, where the command reads them, -T >= min_T,
    S >= 2, --n-max >= 1, --max-degree >= 1 and --max-k >= 1."""
    if getattr(args, "S", 2) < 2:
        raise InputError(f"-S {args.S}: need S >= 2")
    if getattr(args, "T", min_T) < min_T:
        raise InputError(f"-T {args.T}: need T >= {min_T}")
    for flag in ("n_max", "max_degree", "max_k"):
        value = getattr(args, flag, 1)
        if value < 1:
            raise InputError(f"--{flag.replace('_', '-')} {value}: need at least 1")


def cmd_gen_matrix(args) -> int:
    _check_sizes(args)
    run = Run("gen-matrix", args)
    A = get_design(args.S, args.T, cap=args.word_cap)
    stem = f"design-S{args.S}-T{args.T}"
    if args.format in ("csv", "both"):
        path = run.file(f"{stem}.csv")
        with open(path, "w", newline="") as fh:
            A.write_csv(fh)
        run.outputs.append(str(path))
    if args.format in ("json", "both"):
        run.write(f"{stem}.json", A.to_json() + "\n")
    return run.finish(True)


def cmd_stats(args) -> int:
    run = Run("stats", args)
    multiset, T = _read_data(run, args.data, S=args.S)
    S = args.S or max(max(w) for w in multiset)
    run.write_json(
        "stats.json",
        {
            "S": S,
            "T": T,
            "n": sum(multiset.values()),
            "row_order": [f"{a}{b}" for a, b in pair_list(S)],
            "marginal": list(state_graph(multiset, S)),
        },
    )
    return run.finish(True)


def cmd_hull(args) -> int:
    _check_sizes(args)
    run = Run("hull", args)
    H = model_hull(args.T, 3)
    V = vertex_enumeration(H)
    run.write_json(
        f"hull-T{args.T}.json",
        {
            "T": args.T,
            "facet_count": len(H.inequalities),
            "h_representation": json.loads(H.to_json()),
            "vertex_count": len(V.vertices),
        },
    )
    print(f"T={args.T}: {len(H.inequalities)} facets, {len(V.vertices)} vertices")
    return run.finish(True)


def cmd_facets(args) -> int:
    if args.action != "appendix":
        _check_sizes(args, min_T=5)  # the 24-facet description starts at T=5
    run = Run("facets", args)
    ok = True
    if args.action == "certify":
        certs = [c.to_dict() for c in certify_all(args.T)]
        ok = all(c["valid"] for c in certs)
        run.write_json(f"facet-certificates-T{args.T}.json", certs)
        for c in certs:
            print(
                f"facet {c['facet']}: min={c['min_value']} "
                f"tight_rank={c['tight_rank']} {'PASS' if c['valid'] else 'FAIL'}"
            )
    elif args.action == "verify24":
        rep = verify_facet_completeness(args.T)
        ok = rep["ok"]
        run.write_json(f"verify24-T{args.T}.json", rep)
        print(
            f"T={args.T}: {rep['extension_points']} extension points inside="
            f"{rep['all_extensions_inside']}, hull facets={rep['hull_facets']}, "
            f"matches expansion={rep['hull_equals_expansion']} "
            f"{'PASS' if ok else 'FAIL'}"
        )
    elif args.action == "appendix":
        reports = [verify_known_vertices(r) for r in range(6)]
        run.write_json("appendix-vertices.json", reports)
        for rep in reports:
            status = rep["convention_matched"] or "NO MATCH (see published_system)"
            print(f"r={rep['r']}: vertices={rep['computed_vertices']} {status}")
        # a reporting command, so ok stays True: the exit says the comparison
        # ran, and verify_known_vertices characterizes every discrepancy
    return run.finish(ok)


def cmd_lemmas(args) -> int:
    _check_sizes(args)
    run = Run("lemmas", args)
    rep = verify_window_inequalities(max_k=args.max_k)
    run.write_json(f"window-lemmas-k{args.max_k}.json", rep)
    for check in rep["checks"]:
        if not check["pass"]:
            print(f"FAIL {check['name']} {check['detail']}")
    print(
        f"window inequalities: {sum(c['pass'] for c in rep['checks'])}/"
        f"{len(rep['checks'])} checks {'PASS' if rep['ok'] else 'FAIL'}"
    )
    return run.finish(rep["ok"])


def cmd_normality(args) -> int:
    _check_sizes(args)
    run = Run("normality", args)
    rep = check_normality(
        args.T,
        args.n_max,
        S=args.S,
        keep_witnesses=args.witnesses,
    )
    witnesses = rep.pop("witnesses", None)
    if witnesses is not None:
        lines = []
        for x, paths in sorted(witnesses.items()):
            lines.append("# " + " ".join(map(str, x)))
            lines.extend(w.text for w in paths)
        path = run.write(f"normality-witnesses-T{args.T}.words", "\n".join(lines) + "\n")
        rep["witnesses_file"] = str(path)
    run.write_json(f"normality-T{args.T}.json", rep)
    run.counters.update(saturation_points=rep["points_checked"], sums=rep["sums"])
    print(
        f"T={args.T} n<={args.n_max}: {rep['points_checked']} saturation points, "
        f"{len(rep['failures'])} failures, "
        f"{'exact' if rep['exact'] else 'bounded'}: {rep['scope']} "
        f"{'PASS' if rep['ok'] else 'FAIL'}"
    )
    if args.probe_s4:
        probe = s4_nonnormality_probe()
        run.write_json("s4-probe.json", probe)
        print(
            f"S=4 probe: half-sum integral={probe['half_sum_integral']}, "
            f"witness found={probe['witness_found']}"
        )
    return run.finish(rep["ok"])


def cmd_markov(args) -> int:
    _check_sizes(args)
    run = Run("markov", args)
    A = get_design(3, args.T, cap=args.word_cap)
    moves = enumerate_moves(A, args.max_degree, multiset_cap=args.multiset_cap)
    ok, counterexample = is_markov_basis(moves, A, args.n_max, multiset_cap=args.multiset_cap)
    basis = (
        minimal_markov_basis(A, args.max_degree, args.n_max, multiset_cap=args.multiset_cap)
        if ok
        else []
    )
    by_construction = args.n_max <= args.max_degree
    # a moves file lists a basis, so none is written when none was built
    if ok and args.moves_format in ("text", "both"):
        run.write(f"moves-T{args.T}.txt", moves_to_text(basis, A))
    if ok and args.moves_format in ("json", "both"):
        run.write_json(f"moves-T{args.T}.json", moves_to_json_dict(basis, A))
    report = {
        "T": args.T,
        "max_degree": args.max_degree,
        "n_max": args.n_max,
        "enumerated_moves": len(moves),
        "connectivity_ok": ok,
        "counterexample": counterexample,
        # no basis is built unless the enumerated moves connect the fibers
        "minimal_basis_size": len(basis) if ok else None,
        "minimal_basis_max_degree": max((z.degree for z in basis), default=0) if ok else None,
        "connectivity_by_construction": by_construction,
        "caveat": (
            f"connectivity verified for fibers of degree <= {args.n_max} only; "
            "this bounds, but does not prove, Markov-basis property at all degrees"
            + (". Here it holds by construction: two tables of such a fiber differ by one "
               "enumerated move once their common words cancel" if by_construction else "")
        ),
    }
    run.write_json(f"markov-T{args.T}.json", report)
    built = (
        f"minimal basis {len(basis)} moves (max degree {report['minimal_basis_max_degree']})"
        if ok
        else "no minimal basis built"
    )
    print(
        f"T={args.T}: {len(moves)} moves (degree<={args.max_degree}), fibers of "
        f"degree<={args.n_max} connected={ok}, {built} {'PASS' if ok else 'FAIL'}"
    )
    print(report["caveat"])
    return run.finish(ok)


def _load_walk_inputs(run, args):
    try:
        cfg = WalkConfig(
            seed=args.seed, steps=args.steps, burn_in=args.burn_in, thinning=args.thin
        )
    except ValueError as exc:
        raise InputError(exc) from None
    multiset, T = _read_data(run, args.data, S=3)
    A = get_design(3, T, cap=args.word_cap)
    if args.moves_file:
        moves = _read_input(run, args.moves_file, lambda text: moves_from_text(text, A))
        if not moves:
            raise InputError(f"{args.moves_file}: no moves")
        if not verify_kernel(A, moves):
            raise InputError(f"{args.moves_file}: a move is not in the kernel of the design")
    else:
        moves = minimal_markov_basis(A, 2, 2, multiset_cap=args.multiset_cap)
        if not moves:
            raise InputError(
                f"{args.data}: the default basis for T={T} has no moves: "
                "every fiber of degree <= 2 is a single table"
            )
    return A, multiset, moves, cfg


def cmd_walk(args) -> int:
    run = Run("walk", args)
    A, multiset, moves, cfg = _load_walk_inputs(run, args)
    steps = range(cfg.burn_in, cfg.steps, cfg.thinning)
    lines = ["step,table"]
    for step, state in zip(steps, kept_tables(multiset, moves, cfg, A)):
        lines.append(f"{step},{' '.join(A.words[j].text for j in state)}")
    run.write("walk-trace.csv", "\n".join(lines) + "\n")
    print(f"walk: {len(lines) - 1} sampled tables written")
    return run.finish(True)


def cmd_test_fit(args) -> int:
    run = Run("test-fit", args)
    A, multiset, moves, cfg = _load_walk_inputs(run, args)
    result = exact_test(multiset, A, moves, cfg, statistic=args.statistic)
    run.write_json("testfit.json", result.to_dict())
    if args.trace:
        steps = range(cfg.burn_in, cfg.steps, cfg.thinning)
        lines = ["step,statistic"]
        lines += (f"{step},{value!r}" for step, value in zip(steps, result.values))
        run.write("testfit-trace.csv", "\n".join(lines) + "\n")
    print(
        f"{args.statistic}: observed={result.observed:.4f} "
        f"p={result.p_value:.4f} (se {result.std_error:.4f}, "
        f"{result.samples} samples)"
    )
    return run.finish(True)


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once."""
    parser = argparse.ArgumentParser(
        prog="thmc",
        description=(
            "Exact tools for the three-state toric homogeneous Markov chain "
            "model: design matrices, facet certificates, normality checks, "
            "Markov bases, and exact conditional tests."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "word-cap": dict(type=int, default=DEFAULT_WORD_CAP),
        "multiset-cap": dict(type=int, default=DEFAULT_MULTISET_CAP),
    }

    def common(p, *flags):
        """--out-dir plus the named options, each only where the command reads it."""
        p.add_argument("--out-dir", default=".", help="where outputs are written")
        for flag in flags:
            p.add_argument(f"--{flag}", **options[flag])

    p = sub.add_parser("gen-matrix", help="write the design matrix")
    p.add_argument("-S", type=int, default=3)
    p.add_argument("-T", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json", "both"), default="csv")
    common(p, "word-cap")
    p.set_defaults(func=cmd_gen_matrix)

    p = sub.add_parser("stats", help="sufficient statistics of a word file")
    p.add_argument("data")
    p.add_argument("-S", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("hull", help="facet description of the model polytope")
    p.add_argument("-T", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("facets", help="facet certification pipelines")
    p.add_argument("-T", type=int, default=7)
    p.add_argument(
        "--action",
        choices=("certify", "verify24", "appendix"),
        default="certify",
    )
    common(p)
    p.set_defaults(func=cmd_facets)

    p = sub.add_parser("lemmas", help="exhaustive window-inequality checks")
    p.add_argument("--max-k", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("normality", help="saturation vs semigroup at desk scale")
    p.add_argument("-T", type=int, required=True)
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("-S", type=int, default=3)
    p.add_argument("--witnesses", action="store_true", help="write witness words")
    p.add_argument("--probe-s4", action="store_true", help="also run the S=4 probe")
    common(p)
    p.set_defaults(func=cmd_normality)

    p = sub.add_parser("markov", help="move enumeration and basis checks")
    p.add_argument("-T", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--moves-format", choices=("text", "json", "both"), default="text")
    common(p, "word-cap", "multiset-cap")
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("walk", help="sample the fiber random walk")
    p.add_argument("data")
    p.add_argument("--moves-file", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--thin", type=int, default=1)
    common(p, "word-cap", "multiset-cap")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("test-fit", help="exact conditional goodness-of-fit test")
    p.add_argument("data")
    p.add_argument("--moves-file", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--statistic", choices=STATISTICS, default="pearson")
    p.add_argument("--trace", action="store_true",
                   help="also write a CSV trace of sampled statistics")
    common(p, "word-cap", "multiset-cap")
    p.set_defaults(func=cmd_test_fit)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
