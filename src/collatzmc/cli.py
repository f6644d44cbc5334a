"""Command-line entry point.

Exit codes: 0 success, 1 verification failure, internal inconsistency, a
lost sweep worker or a stdout that is closed or cannot be written, 2 usage
error, 3 capacity/step-cap errors.  Results go to stdout, diagnostics to
stderr; identical flags produce byte-identical output.

Each command handler imports the submodules it runs, so importing this module
loads no numpy and a run loads only what its command uses.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from .errors import CapacityError, ConsistencyError, TrajectoryCapError, WorkerError

#: Highest preimage level: its members are printed mod 8^4761, which has 4300
#: decimal digits, the interpreter's default int-to-str limit.
MAX_PREIMAGE_LEVEL = 4760


def _int_at_least(text: str, low: int, kind: str) -> int:
    try:
        value = int(text)
        if value >= low:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text}")


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "positive")


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0, "nonnegative")


def _bool_flag(text: str) -> bool:
    lowered = text.lower()
    if lowered not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text}")
    return lowered == "true"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatzmc",
        description=(
            "Exact residue-class analysis of the Collatz map: preimages mod 8^m, "
            "the invariant measure, class transition matrices, contraction factors, "
            "and empirical trajectory sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "preimage",
        help="members of the third-iterate preimage of B(j, 8^m), one level finer",
    )
    p.add_argument("--j", type=_nonnegative_int, required=True, help="target residue")
    p.add_argument("--m", type=_positive_int, default=1, help="target level (modulus 8^m)")

    p = sub.add_parser("matrix", help="exact class transition matrix at level m")
    p.add_argument("--m", type=_positive_int, default=1)
    p.add_argument("--format", choices=("triplets", "dense"), default="triplets")

    p = sub.add_parser("stationary", help="exact stationary distribution at level m")
    p.add_argument("--m", type=_positive_int, default=1)

    p = sub.add_parser("graph", help="DOT graph of the class chain at level m")
    p.add_argument("--m", type=_positive_int, default=1)

    p = sub.add_parser("contraction", help="contraction factors, bounds, and log averages")
    p.add_argument("--n-min", type=_positive_int, default=3, dest="n_min")
    p.add_argument("--m", type=_positive_int, default=1, help="level, echoed only: alpha does not use it")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("simulate", help="sweep all starts up to n_max and compare to theory")
    p.add_argument("--max", type=_positive_int, required=True, dest="n_max")
    p.add_argument("--m", type=_positive_int, default=1)
    p.add_argument("--include-start", type=_bool_flag, default=True, dest="include_start")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--per-trajectory",
        action="store_true",
        dest="per_trajectory",
        help="also average per-orbit normalized histograms (reported in json)",
    )
    p.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="process count, at most the CPUs this process may use (default: all of them)",
    )

    p = sub.add_parser("verify", help="run exact verification checks; exit 1 on any FAIL")
    p.add_argument("--m", type=_positive_int, default=1)
    p.add_argument("--measure", action="store_true", help="measure preimage-invariance, per class")
    p.add_argument(
        "--stochasticity",
        action="store_true",
        help="the image columns, read as a class map, equal the solved preimage map",
    )
    p.add_argument("--stationarity", action="store_true", help="exact fixed vector + power iteration")
    p.add_argument("--chapman", action="store_true", help="k-step measure probabilities vs matrix powers")
    p.add_argument("--ergodicity", action="store_true", help="some matrix power strictly positive")
    p.add_argument("--all", action="store_true", dest="run_all")
    return parser


def _cmd_preimage(args, out) -> int:
    from .congruence import CongruenceClass, preimage_class

    if args.m > MAX_PREIMAGE_LEVEL:
        raise CapacityError(f"level {args.m} exceeds the preimage cap {MAX_PREIMAGE_LEVEL}")
    # Below the cap the moduli have at most 4300 digits, so only an int-to-str
    # limit (0 when off) lowered below that can refuse a level.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < 4300 and 8 ** (args.m + 1) >= 10**limit:
        raise CapacityError(
            f"level {args.m} prints moduli 8^{args.m + 1} of over {limit} decimal digits"
        )
    modulus = 8**args.m
    if args.j >= modulus:
        print(f"error: --j must be below 8^m = {modulus}", file=sys.stderr)
        return 2
    union = preimage_class(CongruenceClass(args.j, args.m))
    for member in union:
        print(member.label(), file=out)
    print(f"even_members={union.even_count()} odd_members={union.odd_count()}", file=out)
    return 0


def _cmd_matrix(args, out) -> int:
    from . import markov

    matrix = markov.build_matrix(args.m)
    if args.format == "triplets":
        out.writelines(markov.emit_triplets(matrix))
    else:
        for row in matrix.dense():
            print(" ".join(str(p) for p in row), file=out)
    return 0


def _cmd_stationary(args, out) -> int:
    from . import markov

    weights = markov.stationary_distribution(markov.build_matrix(args.m))
    out.writelines(markov.emit_stationary(args.m, weights))
    return 0


def _cmd_graph(args, out) -> int:
    from . import markov

    out.writelines(markov.emit_chain_graph(markov.build_matrix(args.m)))
    return 0


def _cmd_contraction(args, out) -> int:
    import json

    from . import contraction

    report = contraction.build_report(n_min=args.n_min, level=args.m)
    fields = {
        "level": report.level,
        "n_min": report.n_min,
        "raw_factors": [str(f) for f in report.raw_factors],
        "raw_geometric_mean": str(report.raw_mean),
        "bound_factors": [str(c) for c in report.bound_factors],
        "bounded_geometric_mean": report.bound_mean,
        "alpha": report.alpha,
        "beta": report.beta,
    }
    if args.format == "json":
        print(json.dumps(fields, indent=2), file=out)
        return 0
    for name, value in fields.items():
        if isinstance(value, list):
            value = " ".join(value)
        elif isinstance(value, float):
            value = f"{value:.12g}"
        print(f"{name:<24}{value}", file=out)
    return 0


def _cmd_simulate(args, out) -> int:
    from . import empirical

    try:
        config = empirical.SweepConfig(
            n_max=args.n_max,
            level=args.m,
            include_start=args.include_start,
            # CSV output has no per-trajectory column, so skip the tally there
            per_trajectory=args.per_trajectory and args.format == "json",
            workers=args.workers or empirical.usable_cpus(),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = empirical.sweep(config)
    table = empirical.compare_to_theory(stats)
    if args.format == "csv":
        empirical.write_csv(out, table)
    else:
        per_traj = (
            empirical.compare_to_theory(stats, use_per_trajectory=True)
            if args.per_trajectory
            else None
        )
        empirical.write_json(out, table, per_traj)
    return 0


def _cmd_verify(args, out) -> int:
    from fractions import Fraction

    from . import markov, measure

    checks = {
        "measure": args.measure,
        "stochasticity": args.stochasticity,
        "stationarity": args.stationarity,
        "chapman": args.chapman,
        "ergodicity": args.ergodicity,
    }
    if args.run_all:
        checks = dict.fromkeys(checks, True)
    if not any(checks.values()):
        print("error: select at least one check (or --all)", file=sys.stderr)
        return 2
    failed = False

    targets = None  # the preimage map, built once when both checks that read it run
    if checks["measure"]:
        if checks["stochasticity"]:
            targets = measure.preimage_map(args.m)
        report = measure.check_invariance(args.m, targets)
        lines = []
        if not args.run_all:
            modulus, unit = 8**args.m, 12 * 8**args.m
            for j, (got, want) in enumerate(zip(report.preimage.tolist(), report.measure.tolist())):
                if got == want:
                    lines.append(f"PASS B({j},{modulus})\n")
                else:
                    lines.append(
                        f"FAIL B({j},{modulus}) preimage={Fraction(got, unit)} "
                        f"class={Fraction(want, unit)}\n"
                    )
        status = "PASS" if report.passed else "FAIL"
        exact = f"{report.exact.sum()}/{len(report.exact)} classes exact"
        lines.append(f"{status} measure-invariance m={args.m} ({exact})\n")
        out.write("".join(lines))
        failed |= not report.passed

    matrix = None
    if checks["stochasticity"] or checks["stationarity"]:
        matrix = markov.build_matrix(args.m)

    if checks["stochasticity"]:
        if markov.check_stochasticity(matrix, targets):
            print(f"PASS stochasticity m={args.m} ({matrix.size} rows sum to 1)", file=out)
        else:
            print(f"FAIL stochasticity m={args.m} (image columns differ from the preimage map)", file=out)
            failed = True
    del targets

    if checks["stationarity"]:
        try:
            markov.stationary_distribution(matrix)
            print(f"PASS stationarity m={args.m} (exact fixed vector, power iteration agrees)", file=out)
        except ConsistencyError as exc:
            print(f"FAIL stationarity m={args.m} ({exc})", file=out)
            failed = True

    if checks["chapman"]:
        q = markov.build_matrix(1)
        ok = all((markov.kstep_measure_matrix(k) == markov.matrix_power(q, k)).all() for k in (2, 3))
        status = "PASS" if ok else "FAIL"
        print(f"{status} chapman-kolmogorov m=1 k=2,3 (measure k-step equals matrix power)", file=out)
        failed |= not ok

    if checks["ergodicity"]:
        print(f"PASS ergodicity m={args.m} ({markov.check_ergodicity(args.m)})", file=out)

    return 1 if failed else 0


_HANDLERS = {
    "preimage": _cmd_preimage,
    "matrix": _cmd_matrix,
    "stationary": _cmd_stationary,
    "graph": _cmd_graph,
    "contraction": _cmd_contraction,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv=None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    if out is None:  # the interpreter started with file descriptor 1 closed
        print("error: stdout is closed", file=sys.stderr)
        return 1
    stdout = out is sys.stdout
    if stdout and isinstance(getattr(out, "buffer", None), io.RawIOBase):
        # Unbuffered (PYTHONUNBUFFERED), the raw file drops the rest of a write
        # the reader cuts short; a buffered writer retries it and so raises
        # BrokenPipeError once the reader is gone.
        raw = io.FileIO(out.fileno(), "w", closefd=False)
        out = io.TextIOWrapper(io.BufferedWriter(raw), encoding=out.encoding, errors=out.errors)
    if "numpy" not in sys.modules:
        # No command calls BLAS, but importing numpy starts OpenBLAS's thread
        # pool, whose idle thread spins; a value the caller set still wins.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = _HANDLERS[args.command](args, out)
        out.flush()
        return code
    except (CapacityError, TrajectoryCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConsistencyError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a stdout the reader closed, a full disk, ...
        if stdout:  # the rest goes to devnull, so the exit flush raises no second error
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        closed = isinstance(exc, BrokenPipeError)
        print(f"error: {'stdout was closed before the output ended' if closed else exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())
