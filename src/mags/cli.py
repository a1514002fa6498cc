"""Command-line experiment driver.

Subcommands: ``train`` (fit one checkpoint per training variant and seed),
``eval`` (sweep fault kinds, rates and policies over trained checkpoints),
``props`` (run the certificate suite, nonzero exit on any failure), and
``plotdata`` (aggregate run CSVs into tidy per-panel series).

Run CSVs carry a versioned ``# schema:`` comment line. All columns except
``wall_time`` are deterministic for a fixed config; checkpoints and the
aggregate CSV are byte-identical across reruns on one platform.

``train`` and ``eval`` run one job per (train_name, seed) in ``--workers``
processes (at most one per job). A command builds its inputs once, the
training pool or the test split, into shared memory: the split's noise or
image blocks run on the workers (at most one per block, whatever the job
count), each writing its blocks into the shared views. The command then
forks the workers for its jobs, and they read those inputs. Both times the
calling process runs a share itself, the share that holds the heaviest
block or job. Unless the user set ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``, numpy's OpenBLAS runs one
thread per process meanwhile. The default is one worker per usable core
where that count can be set or the user set one, and 1 otherwise. Where the
platform cannot fork, the default is 1 and more is a usage error. Results
do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import collections
import csv
import ctypes
import dataclasses
import itertools
import multiprocessing
import os
import signal
import sys
import traceback
from pathlib import Path

import numpy as np

from .certs import format_report, run_all
from .config import (ExperimentConfig, build_dataset, build_method_graph, load_config,
                     parse_seed_list)
from .data import make_splits
from .errors import ConfigError
from .faults import FAULT_KINDS, FaultModel
from .inference import client_encode
from .metrics import POLICIES, evaluate_policies
from .topology import GRAPH_KINDS
from .training import fit, load_checkpoint, save_checkpoint

RUNS_SCHEMA = "# schema: mags/runs/v1"
RUNS_HEADER = ["method", "graph", "fault_kind", "fault_rate", "policy", "seed",
               "accuracy", "comm_mean", "wall_time"]
AGG_SCHEMA = "# schema: mags/aggregate/v1"
AGG_HEADER = ["method", "graph", "fault_kind", "fault_rate", "policy",
              "mean", "std", "comm_mean", "seed_count"]
PLOT_SCHEMA = "# schema: mags/plotdata/v1"
PLOT_ALL_HEADER = ["fault_kind", "graph", "policy", "method", "fault_rate", "mean", "err"]
PLOT_PANEL_HEADER = ["method", "fault_rate", "mean", "err"]
# the user's BLAS thread settings: with any of them set, the default worker
# count is one per usable core whatever the BLAS, and nothing is pinned
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_threads():
    """The ``(get, set)`` thread-count functions of numpy's OpenBLAS, or None
    where numpy's BLAS is another or exports none of these names."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                 "scipy_openblas_%s_num_threads", "openblas_%s_num_threads"):
        if hasattr(lib, name % "get") and hasattr(lib, name % "set"):
            return getattr(lib, name % "get"), getattr(lib, name % "set")
    return None


OPENBLAS_THREADS = _openblas_threads()
# workers are forked from the calling process, which keeps a share of the work;
# where fork is unavailable, every command runs serially
CAN_FORK = "fork" in multiprocessing.get_all_start_methods()


def checkpoint_path(out_dir: Path, train_name: str, seed: int) -> Path:
    return out_dir / "checkpoints" / f"{train_name}-seed{seed}.ckpt"


def write_csv(path: Path, schema: str, header, rows) -> Path:
    """Write ``rows`` under the ``schema`` comment line and ``header``."""
    with open(path, "w", newline="") as f:
        f.write(schema + "\n")
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    return path


def user_set_blas_threads() -> bool:
    return any(v in os.environ for v in BLAS_THREAD_VARS)


def train_jobs(cfg: ExperimentConfig) -> list:
    """One (training variant's MethodSpec, seed) job per checkpoint."""
    return [(spec, seed) for spec in cfg.train_variants() for seed in cfg.seeds]


def worker_count(workers: int | None) -> int:
    """A command's worker count, ``workers`` checked (``_run_jobs`` runs at
    most one per job, and a dataset build's jobs are its blocks).

    By default, one per usable core where the workers can fork and their
    BLAS thread count is known to do no harm: ``_run_jobs`` sets numpy's
    OpenBLAS to one thread per process (a desk ``mags train`` on 2 cores: a
    median 26.0 s over 10 pairs, against 48.5 s at OpenBLAS's own count),
    or the user set a thread count. Otherwise 1: an MKL or OpenMP BLAS would
    run its full thread count in every worker, and an OpenMP runtime used
    before a fork may hang in the worker.
    """
    if workers is None:
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        safe = OPENBLAS_THREADS is not None or user_set_blas_threads()
        workers = cores if CAN_FORK and safe else 1
    elif workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")
    elif workers > 1 and not CAN_FORK:
        raise ConfigError(f"--workers {workers} needs the fork start method, "
                          "which this platform lacks")
    return workers


def _work_share(conn, fn, share):
    """A forked worker's body: send back ``(True, results)``, or ``(False,
    exception, traceback)`` for the calling process to raise. An interrupt
    is the calling process's to handle: it terminates the workers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        reply = (True, fn(share))
    except Exception as exc:
        reply = (False, exc, traceback.format_exc())
    conn.send(reply)


def deal(weights, workers: int) -> list:
    """One list of job indices per share, each in job order: the jobs go,
    heaviest first, each to the share with the least weight so far (the
    first of equals). Equal weights deal round-robin. Share 0 always holds
    the heaviest job."""
    shares, loads = [[] for _ in range(workers)], [0] * workers
    for j in sorted(range(len(weights)), key=lambda j: -weights[j]):
        i = loads.index(min(loads))
        shares[i].append(j)
        loads[i] += weights[j]
    return [sorted(share) for share in shares]


def _run_jobs(fn, jobs, workers: int, weights=None):
    """``fn(jobs)`` returns one result per job, in job order.

    With more than one worker (at most one per job), the jobs are dealt by
    ``weights`` (by default equal) into one share per worker. The calling
    process runs share 0, which holds the heaviest job, so a profiler in
    that process sees the most code; every other share runs in a forked
    process, which inherits ``fn`` and all it reads, so nothing is rebuilt
    or pickled, and sends its results back through its own pipe. Every
    worker is joined, or on any error or interrupt terminated first; the
    results come back in job order. Unless the user set a BLAS thread count,
    numpy's OpenBLAS runs one thread per process until the workers are joined.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        return fn(jobs)
    shares = deal([1] * len(jobs) if weights is None else weights, workers)
    fork = multiprocessing.get_context("fork")
    procs, conns = [], []
    results = [None] * len(jobs)
    pinned = OPENBLAS_THREADS is not None and not user_set_blas_threads()
    if pinned:
        get_threads, set_threads = OPENBLAS_THREADS
        caller_threads = get_threads()
        set_threads(1)  # before the fork, so that every worker inherits it

    def put(share, share_results):
        for j, result in zip(share, share_results):
            results[j] = result

    try:
        for share in shares[1:]:
            conn, child_conn = fork.Pipe(duplex=False)
            proc = fork.Process(target=_work_share,
                                args=(child_conn, fn, [jobs[j] for j in share]))
            proc.start()
            child_conn.close()  # so that a worker that dies shows as EOF
            procs.append(proc)
            conns.append(conn)
        put(shares[0], fn([jobs[j] for j in shares[0]]))
        for i, (proc, conn) in enumerate(zip(procs, conns), 1):
            try:
                reply = conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"worker {i} exited with code {proc.exitcode} "
                                   "before sending its results") from None
            if not reply[0]:
                raise reply[1] from RuntimeError(f"in worker {i}:\n{reply[2]}")
            put(shares[i], reply[1])
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
        if pinned:
            set_threads(caller_threads)
    return results


def _train_checkpoints(cfg: ExperimentConfig, jobs, pool) -> list:
    """Fit and save one checkpoint per ``train_jobs`` job. ``pool`` is the
    training pool's ``ClientSplit``: each fit gathers its split from the
    pool's client views by row."""
    paths = []
    for spec, seed in jobs:
        graph = build_method_graph(cfg, spec)
        tc = dataclasses.replace(cfg.train, dropout=spec.dropout, seed=seed)
        path = checkpoint_path(cfg.out_dir, spec.train_name, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        curve = path.with_name(f"{spec.train_name}-seed{seed}-curve.csv")
        curve.unlink(missing_ok=True)  # curves append; rewrite for idempotent reruns
        ckpt = fit(tc, pool.views, pool.labels, pool.class_count, make_splits(len(pool), seed),
                   pool.partition, graph, curve_path=curve)
        ckpt.config["method"] = spec.train_name
        save_checkpoint(ckpt, path)
        paths.append(str(path))
    return paths


def cmd_train(cfg: ExperimentConfig, workers: int) -> int:
    jobs = train_jobs(cfg)
    pool = build_dataset(cfg, "train", workers)
    for p in _run_jobs(lambda share: _train_checkpoints(cfg, share, pool), jobs, workers):
        print(p)
    return 0


def _eval_checkpoints(cfg: ExperimentConfig, jobs, test) -> list:
    """Run rows for each ``train_jobs`` job: every cell of the methods that
    share that checkpoint.

    ``test`` is the test split's ``ClientSplit``, built once for all jobs.
    Each checkpoint is loaded once and encodes the whole test set once. Methods
    sharing a checkpoint differ only in gossip rounds, so they share its
    aggregator count, graph and fault draws: one ``evaluate_policies`` call
    per checkpoint scores every (fault kind, rate) cell of all of them. Each
    result's ``seconds``, its (fault kind, rate) group's scoring time split
    evenly over those methods, is its rows' ``wall_time``.
    """
    cells = list(itertools.product(cfg.fault_kinds, cfg.fault_rates))
    results = []
    for variant, seed in jobs:
        train_name = variant.train_name
        graph = build_method_graph(cfg, variant)
        ckpt = load_checkpoint(checkpoint_path(cfg.out_dir, train_name, seed))
        if ckpt.model.aggregators != graph.aggregators:
            raise ConfigError(
                f"checkpoint {train_name}-seed{seed} aggregators do not match config graph")
        model = ckpt.model
        clients, _, width = test.views.shape
        fitted = (model.client_count, model.encoder_dims[0], model.class_count)
        wanted = (clients, width, test.class_count)
        if fitted != wanted:
            raise ConfigError(
                f"checkpoint {train_name}-seed{seed} has {fitted[0]} clients, patch width "
                f"{fitted[1]} and {fitted[2]} classes; the config's test split has "
                f"{wanted[0]}, {wanted[1]} and {wanted[2]}")
        reps = client_encode(model, test.views)
        specs = [s for s in cfg.method_specs() if s.train_name == train_name]
        grid = evaluate_policies(model, reps, test.labels, graph,
                                 [FaultModel(kind, rate) for kind, rate in cells], cfg.policies,
                                 [s.gossip_rounds for s in specs], seed,
                                 batch_size=cfg.train.batch_size, trials=cfg.trials)
        rows = []
        for (kind, rate), cell_results in zip(cells, grid):
            for spec, result in zip(specs, cell_results):
                for policy in cfg.policies:
                    undefined = (spec.aggregator_count == 1
                                 and policy in ("active_best", "active_worst"))
                    acc = "nan" if undefined else f"{result.accuracy[policy]:.6f}"
                    rows.append([spec.name, cfg.graph_kind, kind, f"{rate:g}", policy,
                                 str(seed), acc, f"{result.comm_mean:.4f}",
                                 f"{result.seconds:.3f}"])
        results.append(rows)
    return results


def cmd_eval(cfg: ExperimentConfig, workers: int) -> int:
    jobs = train_jobs(cfg)
    for spec, seed in jobs:
        p = checkpoint_path(cfg.out_dir, spec.train_name, seed)
        if not p.exists():
            raise ConfigError(f"missing checkpoint {p}; run `mags train` first")

    method_order = {m.name: i for i, m in enumerate(cfg.method_specs())}
    kind_order = {k: i for i, k in enumerate(cfg.fault_kinds)}
    policy_order = {p: i for i, p in enumerate(cfg.policies)}
    test = build_dataset(cfg, "test", workers)
    # a job scores every cell of each method on its checkpoint
    methods = collections.Counter(spec.train_name for spec in cfg.method_specs())
    weights = [methods[spec.train_name] for spec, _ in jobs]
    results = _run_jobs(lambda share: _eval_checkpoints(cfg, share, test), jobs, workers, weights)
    rows = [row for job_rows in results for row in job_rows]
    rows.sort(key=lambda r: (method_order[r[0]], kind_order[r[2]], float(r[3]),
                             policy_order[r[4]], int(r[5])))

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    print(write_csv(cfg.out_dir / "runs.csv", RUNS_SCHEMA, RUNS_HEADER, rows))
    print(write_csv(cfg.out_dir / "aggregate.csv", AGG_SCHEMA, AGG_HEADER, aggregate_rows(rows)))
    return 0


def aggregate_rows(rows):
    """Collapse per-seed rows to mean/std keyed by (method, kind, rate, policy),
    preserving first-appearance order."""
    groups = {}
    for r in rows:
        groups.setdefault(tuple(r[:5]), []).append(r)
    out = []
    for key, group in groups.items():
        accs = [float(r[6]) for r in group]
        comms = [float(r[7]) for r in group]
        arr = np.array(accs)
        if np.isnan(arr).any():
            mean_s, std_s = "nan", "nan"
        else:
            std = arr.std(ddof=1) if len(arr) > 1 else 0.0
            mean_s, std_s = f"{arr.mean():.6f}", f"{std:.6f}"
        out.append([key[0], key[1], key[2], key[3], key[4],
                    mean_s, std_s, f"{np.mean(comms):.4f}", str(len(accs))])
    return out


def cmd_props(seed: int = 0, out: str | None = None) -> int:
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    results = run_all(seed)
    report = format_report(results)
    print(report)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(report + "\n")
    return 0 if all(r.passed for r in results) else 1


def read_runs_csv(path):
    """The data rows of a runs CSV, blank lines skipped. A wrong schema line
    or header, a row of another width, a fault_rate that is not a number in
    [0, 1], a seed that is not an integer, an accuracy or comm_mean that is
    not a number (``nan`` is one), or an unknown graph, fault kind or policy
    raises ``ConfigError`` naming the file and line."""
    with open(path) as f:
        first = f.readline().strip()
        if first != RUNS_SCHEMA:
            raise ConfigError(f"{path}: expected schema line {RUNS_SCHEMA!r}, got {first!r}")
        reader = csv.reader(f)
        header = next(reader, None)
        if header != RUNS_HEADER:
            raise ConfigError(f"{path}: unexpected runs header {header}")
        rows = []
        for row in reader:
            if not row:
                continue
            where = f"{path}, line {reader.line_num + 1}"  # the schema line came first
            if len(row) != len(RUNS_HEADER):
                raise ConfigError(f"{where}: {len(row)} fields, not {len(RUNS_HEADER)}")
            for column, parse in (("fault_rate", float), ("seed", int), ("accuracy", float),
                                  ("comm_mean", float)):
                value = row[RUNS_HEADER.index(column)]
                try:
                    parse(value)
                except ValueError:
                    what = "an integer" if parse is int else "a number"
                    raise ConfigError(f"{where}: {column} {value!r} is not {what}") from None
            rate = row[RUNS_HEADER.index("fault_rate")]
            if not 0.0 <= float(rate) <= 1.0:  # nan fails too
                raise ConfigError(f"{where}: fault_rate {rate!r} is not in [0, 1]")
            for column, known in (("graph", GRAPH_KINDS), ("fault_kind", FAULT_KINDS),
                                  ("policy", POLICIES)):  # these three name the plot files
                value = row[RUNS_HEADER.index(column)]
                if value not in known:
                    raise ConfigError(f"{where}: {column} {value!r} is not one of {known}")
            rows.append(row)
        return rows


def cmd_plotdata(csv_paths, out_dir) -> int:
    rows = []
    for p in csv_paths:
        rows.extend(read_runs_csv(p))
    agg = aggregate_rows(rows)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    print(write_csv(out / "plot_all.csv", PLOT_SCHEMA, PLOT_ALL_HEADER,
                    [[a[2], a[1], a[4], a[0], a[3], a[5], a[6]] for a in agg]))
    panels = {}
    for a in agg:  # keyed by fault kind, graph, policy
        panels.setdefault((a[2], a[1], a[4]), []).append([a[0], a[3], a[5], a[6]])
    for (kind, graph, policy), panel in panels.items():
        print(write_csv(out / f"plot_{kind}_{graph}_{policy}.csv", PLOT_SCHEMA,
                        PLOT_PANEL_HEADER, panel))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mags",
        description="Fault-tolerant decentralized collaborative inference experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (("train", "train checkpoints for every method variant and seed"),
                      ("eval", "sweep fault kinds/rates/policies over trained checkpoints")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides [run] out)")
        p.add_argument("--seeds", help="seed list like 1,2,3 or 1..16 (overrides config)")
        p.add_argument("--workers", type=int,
                       help="worker processes (default: one per usable core)")

    p = sub.add_parser("props", help="run the certificate suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("plotdata", help="aggregate run CSVs into plot series")
    p.add_argument("csvs", nargs="+", help="run CSV files")
    p.add_argument("--out", required=True, help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command in ("train", "eval"):
            seeds = parse_seed_list(args.seeds) if args.seeds else None
            cfg = load_config(args.config, seeds_override=seeds, out_override=args.out)
            command = cmd_train if args.command == "train" else cmd_eval
            return command(cfg, worker_count(args.workers))
        if args.command == "props":
            return cmd_props(args.seed, args.out)
        return cmd_plotdata(args.csvs, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
