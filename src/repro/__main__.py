"""Command-line interface: ``python -m repro <command> ...``.

Subcommands
-----------

* ``run``      — functionally simulate a filter on the GPU model and verify
                 it against the NumPy reference.
* ``measure``  — estimate naive/isp/isp+m (and optionally every variant)
                 times for a configuration and print the speedups.
* ``predict``  — evaluate the analytic model (paper Eqs. 1-10) for a kernel.
* ``codegen``  — dump the generated CUDA C for a variant.
* ``regions``  — print the ISP region map and index bounds for a geometry.
* ``devices``  — list the simulated GPUs.
* ``serve-bench`` — drive a synthetic mixed workload through the
                 ``repro.serve`` engine and report throughput / latency /
                 plan-cache hit rate vs. the cold-compile baseline.
* ``trace``    — record an end-to-end traced workload through the serve
                 engine, export Chrome trace-event JSON (Perfetto) and the
                 Prometheus text exposition, and print the
                 measured-vs-predicted ``R_reduced`` region report.
* ``sanitize`` — run the static IR bounds sanitizer over the filter corpus
                 (every app x pattern x variant), and optionally the
                 cross-variant differential harness; exits non-zero on any
                 finding.
* ``cluster``  — boot a local multi-shard cluster (one serve engine per
                 worker process), drive a digest-verified load through the
                 gateway, and report throughput / failovers / per-shard hit
                 rates; ``--scaling`` runs the 1 -> N shard scaling curve
                 instead.

``measure`` and ``predict`` accept a comma-separated size list
(``--size 512,1024``) and evaluate every size.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(v) for v in text.split(",")]
        if not sizes or any(s <= 0 for s in sizes):
            raise ValueError
        return sizes
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid --size {text!r}; expected e.g. 512 or 512,1024"
        )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value < 1:
            raise ValueError
        return value
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )


def _add_common(p: argparse.ArgumentParser, *, size_default: int = 512,
                multi_size: bool = False) -> None:
    p.add_argument("--app", default="gaussian",
                   choices=["gaussian", "laplace", "bilateral", "sobel", "night"])
    p.add_argument("--pattern", default="clamp",
                   choices=["clamp", "mirror", "repeat", "constant"])
    if multi_size:
        p.add_argument("--size", type=_parse_sizes, default=[size_default],
                       help="image size(s), e.g. 512 or 512,1024,2048")
    else:
        p.add_argument("--size", type=int, default=size_default)
    p.add_argument("--block", default="32x4",
                   help="threadblock shape, e.g. 32x4 or 128x1")
    p.add_argument("--device", default="GTX680", choices=["GTX680", "RTX2080"])
    p.add_argument("--constant", type=float, default=0.0,
                   help="border value for the constant pattern")


def _parse_block(text: str) -> tuple[int, int]:
    try:
        tx, ty = (int(v) for v in text.lower().split("x"))
        return tx, ty
    except Exception:
        raise SystemExit(f"invalid --block {text!r}; expected e.g. 32x4")


def _boundary(name: str):
    from repro.dsl import Boundary

    return Boundary(name)


def cmd_run(args) -> int:
    from repro.filters import PIPELINES, REFERENCES
    from repro.gpu import get_device
    from repro.runtime import run_pipeline_simt
    from repro.compiler import CompileError, Variant

    if args.size > 128:
        print(f"note: functional simulation of {args.size}^2 is slow; "
              "consider --size 64", file=sys.stderr)
    rng = np.random.default_rng(args.seed)
    src = rng.random((args.size, args.size)).astype(np.float32)
    pipe = PIPELINES[args.app](args.size, args.size, _boundary(args.pattern),
                               args.constant)
    try:
        result = run_pipeline_simt(
            pipe, variant=Variant(args.variant),
            block=_parse_block(args.block),
            device=get_device(args.device), inputs={"inp": src},
        )
    except CompileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    ref = REFERENCES[args.app](src, _boundary(args.pattern), args.constant)
    err = float(np.abs(result.output - ref).max())
    total_warp = sum(p.warp_instructions for p in result.profilers)
    ok = err < args.tolerance
    print(f"{args.app}/{args.pattern}/{args.variant} {args.size}x{args.size}: "
          f"max|err| vs reference = {err:.2e}, "
          f"{total_warp} warp instructions executed")
    if not ok:
        print(f"verification FAILED: max|err| {err:.2e} >= "
              f"tolerance {args.tolerance:.2e}", file=sys.stderr)
    return 0 if ok else 1


def cmd_measure(args) -> int:
    from repro.compiler import CompileError, Variant
    from repro.filters import PIPELINES
    from repro.gpu import get_device
    from repro.runtime import measure_pipeline, select_variants

    device = get_device(args.device)
    block = _parse_block(args.block)
    boundary = _boundary(args.pattern)
    for size in args.size:
        pipe_for = lambda: PIPELINES[args.app](size, size, boundary,
                                               args.constant)
        variants = [Variant.NAIVE, Variant.ISP]
        if args.all_variants:
            variants += [Variant.ISP_WARP, Variant.TEXTURE, Variant.SHARED,
                         Variant.SHARED_ISP]
        times = {}
        for v in variants:
            try:
                times[v] = measure_pipeline(pipe_for(), variant=v, block=block,
                                            device=device).total_us
            except CompileError as e:
                times[v] = None
                print(f"  {v.value:10s}: unsupported ({e})", file=sys.stderr)
        choices = select_variants(pipe_for(), block=block, device=device)
        times[Variant.ISP_MODEL] = measure_pipeline(
            pipe_for(), variant=Variant.ISP_MODEL, block=block, device=device,
            per_kernel_variants=choices,
        ).total_us

        base = times[Variant.NAIVE]
        print(f"{args.app}/{args.pattern} {size}x{size} on {device.name} "
              f"(block {block[0]}x{block[1]}):")
        for v, t in times.items():
            if t is None:
                continue
            print(f"  {v.value:10s}: {t:10.1f} pseudo-us   "
                  f"speedup {base / t:5.3f}x")
        picks = ", ".join(f"{k}->{v.value}" for k, v in choices.items())
        print(f"  isp+m choices: {picks}")
    return 0


def cmd_predict(args) -> int:
    from repro.compiler import trace_kernel
    from repro.filters import PIPELINES
    from repro.gpu import get_device
    from repro.model import predict_kernel

    device = get_device(args.device)
    block = _parse_block(args.block)
    for size in args.size:
        pipe = PIPELINES[args.app](size, size, _boundary(args.pattern),
                                   args.constant)
        print(f"analytic model (paper Eqs. 1-10) on {device.name}, "
              f"{size}x{size}:")
        for kernel in pipe:
            desc = trace_kernel(kernel)
            p = predict_kernel(desc, block=block, device=device)
            print(f"  {desc.name:12s}: R={p.r_reduced:6.3f}  "
                  f"occ {p.occupancy_naive:.0%}->{p.occupancy_isp:.0%}  "
                  f"G={p.gain:6.3f}  -> {p.choice.value}")
    return 0


def cmd_serve_bench(args) -> int:
    from repro.gpu import get_device
    from repro.serve import format_report, run_serve_bench

    report = run_serve_bench(
        requests=args.requests,
        size=args.size,
        workers=args.workers,
        batch_size=args.batch_size,
        plan_cache_size=args.cache_size,
        baseline_requests=args.baseline_requests,
        seed=args.seed,
        variant=args.variant,
        device=get_device(args.device),
    )
    print(format_report(report))
    if report["errors"]:
        print(f"{report['errors']} request(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_tune(args) -> int:
    """Drive ``auto`` requests through the engine, then print the learned
    table next to the model's prediction — a live version of the paper's
    Table III, with measurement standing in for the 'measured best' column.
    """
    from repro.gpu import get_device
    from repro.reporting import format_table
    from repro.serve import AutoTuner, Request, ServeEngine

    apps = args.apps.split(",")
    patterns = args.patterns.split(",")
    device = get_device(args.device)
    block = _parse_block(args.block)
    tuner = AutoTuner(trials_per_variant=args.trials,
                      path=args.cache)
    rng = np.random.default_rng(args.seed)

    # batch_size=1: every request is its own tuning decision — micro-batching
    # would otherwise collapse a config's whole trial phase into one choice.
    with ServeEngine(workers=args.workers, device=device, block=block,
                     batch_size=1, autotune=tuner) as engine:
        for size in args.size:
            image = rng.random((size, size), dtype=np.float32)
            for app in apps:
                for pattern in patterns:
                    engine.run([
                        Request(app=app, image=image, pattern=pattern,
                                variant="auto", constant=args.constant)
                        for _ in range(args.requests)
                    ])
        rows = []
        for row in tuner.table():
            key = row["key"]
            obs = "/".join(
                str(row["stats"][c].observations) for c in tuner.candidates
            )
            agree = {True: "yes", False: "NO", None: "?"}[row["agrees"]]
            rows.append([
                key.short(),
                f"{row['model_gain']:.3f}",
                row["model_choice"],
                row["committed"] or "(trialing)",
                obs,
                agree,
            ])
        rate = tuner.agreement_rate()
        counters = tuner.metrics.snapshot()["counters"]

    print(format_table(
        ["config", "model G", "model pick", "learned pick",
         "obs " + "/".join(tuner.candidates), "agree"],
        rows,
        title=(f"tune: learned variant table vs analytic model "
               f"(Eq. 10) on {device.name}"),
    ))
    print(f"\ntrials={counters['tuner.trials']} "
          f"commits={counters['tuner.commits']} "
          f"switches={counters['tuner.switches']} "
          f"penalties={counters['tuner.penalties']}")
    print("model agreement rate: "
          + (f"{rate:.0%}" if rate is not None else "n/a (nothing committed)"))
    if args.cache:
        print(f"learned table saved to {args.cache}")
    return 0


def cmd_trace(args) -> int:
    """Record a traced workload through the serve engine, export the trace
    (Chrome trace-event JSON + Prometheus text), and print the
    measured-vs-predicted ``R_reduced`` report (paper Eqs. 9-10 live)."""
    from repro.gpu import get_device
    from repro.serve import ServeEngine
    from repro.serve.bench import build_workload
    from repro.serve.plan import trace_app
    from repro.trace import (
        Tracer,
        format_comparison_report,
        measured_vs_predicted,
        parse_prometheus_text,
        prometheus_text,
        recording,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from repro.reporting import format_table

    device = get_device(args.device)
    block = _parse_block(args.block)
    tracer = Tracer(sample_rate=args.sample_rate, seed=args.seed)
    workload = build_workload(args.requests, size=args.size, seed=args.seed,
                              variant=args.variant)
    with recording(tracer):
        with ServeEngine(workers=args.workers, device=device, block=block,
                         queue_depth=max(64, args.requests),
                         autotune=args.variant == "auto") as engine:
            responses = engine.run(workload)
            prom = prometheus_text(engine.metrics)
    errors = sum(1 for r in responses if not r.ok)
    traced = sum(1 for r in responses if r.trace_id is not None)

    ok = True
    spans = tracer.spans()
    print(f"trace: {args.requests} request(s), {traced} sampled "
          f"(rate {args.sample_rate:g}), {len(spans)} span(s), "
          f"{errors} error(s)")
    if errors:
        ok = False

    if args.out:
        path = write_chrome_trace(tracer, args.out)
        import json as _json

        problems = validate_chrome_trace(_json.loads(path.read_text()))
        if problems:
            ok = False
            print(f"chrome trace INVALID ({len(problems)} problem(s)):",
                  file=sys.stderr)
            for p in problems[:10]:
                print(f"  {p}", file=sys.stderr)
        else:
            print(f"chrome trace written to {path} (valid; load in "
                  "Perfetto / chrome://tracing)")

    if args.prom:
        from pathlib import Path

        target = Path(args.prom)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(prom)
        try:
            parse_prometheus_text(prom)
        except ValueError as exc:
            ok = False
            print(f"prometheus exposition INVALID: {exc}", file=sys.stderr)
        else:
            print(f"prometheus exposition written to {target} (parses clean)")

    summary = tracer.summary()
    if summary:
        rows = [
            [name, agg["count"], f"{1e3 * agg['total_s']:.2f}",
             f"{1e3 * agg['max_s']:.2f}", agg["errors"]]
            for name, agg in sorted(summary.items(),
                                    key=lambda kv: -kv[1]["total_s"])
        ]
        print(format_table(
            ["span", "count", "total ms", "max ms", "errors"], rows,
            title="span summary",
        ))

    if args.report:
        size = args.report_size or args.size
        descs = []
        for app in args.report_apps.split(","):
            descs.extend(trace_app(app, args.report_pattern, size, size))
        comparisons = measured_vs_predicted(descs, block=block, device=device)
        print()
        print(format_comparison_report(comparisons, tolerance=args.tolerance))
        drift = [c for c in comparisons if not c.within(args.tolerance)]
        if drift:
            ok = False
            print(f"{len(drift)} kernel(s) drifted past "
                  f"{100 * args.tolerance:.0f}% of the model prediction",
                  file=sys.stderr)

    return 0 if ok else 1


def cmd_sanitize(args) -> int:
    from repro.compiler import Variant
    from repro.sanitize import (
        run_differential,
        run_pipeline_differential,
        sanitize_corpus,
    )

    apps = args.apps.split(",") if args.apps else None
    sizes = args.size
    reports = sanitize_corpus(
        **({"apps": apps} if apps else {}),
        sizes=sizes,
        variants=tuple(Variant(v) for v in args.variants.split(",")),
        block=_parse_block(args.block),
    )
    findings = [f for r in reports for f in r.findings]
    proved = sum(r.loads_proved + r.stores_proved for r in reports)
    print(f"static: {len(reports)} kernel variant(s) over sizes "
          f"{','.join(str(s) for s in sizes)}: {proved} accesses proved, "
          f"{len(findings)} finding(s)")
    if args.verbose or findings:
        for r in reports:
            if args.verbose or not r.ok:
                print(" ", r.summary())
            for f in r.findings:
                print("   ", f)

    ok = not findings
    if args.differential:
        diff = run_differential(block=_parse_block(args.block))
        print(diff.summary())
        for m in diff.mismatches:
            print("  ", m)
        ok = ok and diff.ok
    if args.pipelines:
        pdiff = run_pipeline_differential()
        print("pipeline", pdiff.summary())
        for m in pdiff.mismatches:
            print("  ", m)
        ok = ok and pdiff.ok
    if not ok:
        print("sanitize FAILED", file=sys.stderr)
    return 0 if ok else 1


def cmd_cluster(args) -> int:
    """Boot a LocalCluster, drive the load generator through the gateway,
    print the report (plus the merged Prometheus exposition on request)."""
    import tempfile

    from repro.cluster import (
        Gateway,
        LocalCluster,
        SyncGateway,
        build_cluster_workload,
        format_cluster_report,
        format_load_report,
        run_cluster_bench,
        run_load,
    )

    if args.scaling:
        report = run_cluster_bench(
            requests=args.requests, size=args.size, seed=args.seed,
            concurrency=args.concurrency, verify=not args.no_verify,
            shard_counts=[int(s) for s in args.shard_counts.split(",")]
            if args.shard_counts else None,
        )
        print(format_cluster_report(report))
        failed = any(sum(p["errors"].values()) for p in report["points"])
        return 1 if failed else 0

    warm_dir = args.warmstart_dir
    tmp = None
    if warm_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        warm_dir = tmp.name
    try:
        with LocalCluster(
            shards=args.shards, warmstart_dir=warm_dir,
            engine_workers=args.engine_workers,
            snapshot_interval_s=args.snapshot_interval,
        ) as cluster:
            gw = SyncGateway(Gateway(
                cluster.router,
                max_inflight=args.max_inflight,
                tenant_quota=args.tenant_quota,
                sample_rate=args.sample_rate,
                metrics_source=cluster.metrics_snapshots,
            ))
            try:
                workload, pool = build_cluster_workload(
                    args.requests, size=args.size, seed=args.seed,
                    variant=args.variant,
                )
                report = run_load(gw, workload, pool,
                                  concurrency=args.concurrency,
                                  verify=not args.no_verify)
                print(format_load_report(report))
                if args.prom:
                    from pathlib import Path

                    target = Path(args.prom)
                    target.parent.mkdir(parents=True, exist_ok=True)
                    target.write_text(gw.metrics_text())
                    print(f"merged prometheus exposition written to {target}")
                return 1 if report["errors"] else 0
            finally:
                gw.close()
    finally:
        if tmp is not None:
            tmp.cleanup()


def cmd_codegen(args) -> int:
    from repro.compiler import Variant, emit_cuda, trace_kernel
    from repro.filters import PIPELINES

    pipe = PIPELINES[args.app](args.size, args.size, _boundary(args.pattern),
                               args.constant)
    desc = trace_kernel(pipe.kernels[args.kernel_index])
    print(emit_cuda(desc, Variant(args.variant), _parse_block(args.block)))
    return 0


def cmd_regions(args) -> int:
    from repro.compiler import RegionGeometry, trace_kernel
    from repro.filters import PIPELINES

    pipe = PIPELINES[args.app](args.size, args.size, _boundary(args.pattern),
                               args.constant)
    desc = trace_kernel(pipe.kernels[0])
    hx, hy = desc.extent
    geom = RegionGeometry.compute(args.size, args.size, hx, hy,
                                  _parse_block(args.block))
    print(f"window {desc.window_size[0]}x{desc.window_size[1]}  "
          f"grid {geom.grid[0]}x{geom.grid[1]}  "
          f"BH_L={geom.bh_l} BH_R={geom.bh_r} BH_T={geom.bh_t} BH_B={geom.bh_b}")
    if geom.degenerate:
        print("geometry is DEGENERATE: ISP falls back to naive")
        return 0
    for region, count in geom.block_counts().items():
        print(f"  {region.value:5s}: {count:8d} blocks")
    print(f"  body fraction: {100 * geom.body_fraction():.2f}%")
    return 0


def cmd_devices(args) -> int:
    from repro.gpu import DEVICES

    for dev in DEVICES.values():
        print(f"{dev.name}: {dev.arch} CC{dev.compute_capability[0]}."
              f"{dev.compute_capability[1]}, {dev.sm_count} SMs, "
              f"{dev.max_warps_per_sm} warps/SM, "
              f"{dev.registers_per_sm} regs/SM "
              f"(cap {dev.max_registers_per_thread}/thread), "
              f"{dev.mem_bandwidth_gbs} GB/s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ISP border-handling reproduction (IPPS 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a filter and verify vs NumPy")
    _add_common(p, size_default=64)
    p.add_argument("--variant", default="isp",
                   choices=["naive", "isp", "isp_warp", "texture", "shared",
                            "shared_isp"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-3,
                   help="max|err| allowed before verification fails")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("measure", help="estimate variant times/speedups")
    _add_common(p, multi_size=True)
    p.add_argument("--all-variants", action="store_true")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("predict", help="evaluate the analytic model")
    _add_common(p, multi_size=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "serve-bench",
        help="throughput/latency report for the repro.serve engine",
    )
    p.add_argument("--requests", type=_positive_int, default=200)
    p.add_argument("--size", type=_positive_int, default=128)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--cache-size", type=int, default=64,
                   help="plan-cache capacity (0 disables caching)")
    p.add_argument("--baseline-requests", type=int, default=None,
                   help="cold-baseline sample size (default: scaled)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", default="isp+m",
                   choices=["naive", "isp", "isp+m"])
    p.add_argument("--device", default="GTX680", choices=["GTX680", "RTX2080"])
    p.set_defaults(func=cmd_serve_bench)

    p = sub.add_parser(
        "tune",
        help="learn per-config variant choices online and compare them to "
             "the analytic model (a live Table III)",
    )
    p.add_argument("--apps", default="gaussian,laplace,bilateral,sobel,night",
                   help="comma list of applications")
    p.add_argument("--patterns", default="clamp,mirror",
                   help="comma list of border patterns")
    p.add_argument("--size", type=_parse_sizes, default=[96],
                   help="image size(s), e.g. 96 or 64,128")
    p.add_argument("--requests", type=_positive_int, default=16,
                   help="auto requests per configuration")
    p.add_argument("--trials", type=_positive_int, default=2,
                   help="measured trials per candidate variant")
    p.add_argument("--workers", type=_positive_int, default=2)
    p.add_argument("--block", default="32x4")
    p.add_argument("--device", default="GTX680", choices=["GTX680", "RTX2080"])
    p.add_argument("--constant", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache", default=None,
                   help="JSON path to load/persist the learned table "
                        "(warm restarts skip trials)")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "trace",
        help="record a traced serve workload; export Chrome trace JSON + "
             "Prometheus text and the measured-vs-predicted region report",
    )
    p.add_argument("--requests", type=_positive_int, default=60)
    p.add_argument("--size", type=_positive_int, default=128)
    p.add_argument("--workers", type=_positive_int, default=4)
    p.add_argument("--variant", default="isp+m",
                   choices=["naive", "isp", "isp+m", "auto"])
    p.add_argument("--sample-rate", type=float, default=1.0,
                   help="head-sampling probability in [0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--block", default="32x4")
    p.add_argument("--device", default="GTX680", choices=["GTX680", "RTX2080"])
    p.add_argument("--out", default=None,
                   help="write Chrome trace-event JSON here (Perfetto)")
    p.add_argument("--prom", default=None,
                   help="write the Prometheus text exposition here")
    p.add_argument("--no-report", dest="report", action="store_false",
                   help="skip the measured-vs-predicted region report")
    p.add_argument("--report-size", type=_positive_int, default=None,
                   help="image size for the region report (default: --size)")
    p.add_argument("--report-apps", default="gaussian",
                   help="comma list of apps to profile regionally")
    p.add_argument("--report-pattern", default="clamp",
                   choices=["clamp", "mirror", "repeat", "constant"])
    p.add_argument("--tolerance", type=float, default=0.10,
                   help="allowed |measured - predicted| / predicted drift")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "sanitize",
        help="prove every compiled kernel's memory accesses in-bounds",
    )
    p.add_argument("--apps", default=None,
                   help="comma list (default: all five filters)")
    p.add_argument("--size", type=_parse_sizes, default=[64, 9],
                   help="image sizes; small ones exercise the degenerate "
                        "naive fallback")
    p.add_argument("--variants", default="naive,isp,isp_warp",
                   help="comma list of compile variants")
    p.add_argument("--block", default="32x4")
    p.add_argument("--differential", action="store_true",
                   help="also run the cross-variant differential harness "
                        "(tiny images x large windows vs NumPy reference)")
    p.add_argument("--pipelines", action="store_true",
                   help="also run the pipeline differential: fused vs "
                        "staged vs reference over conv chains and the "
                        "sobel/night apps, bit-exact at every tile shape")
    p.add_argument("--verbose", action="store_true",
                   help="print one line per sanitized kernel variant")
    p.set_defaults(func=cmd_sanitize)

    p = sub.add_parser(
        "cluster",
        help="boot a local multi-shard serve cluster and drive a "
             "digest-verified load through the gateway",
    )
    p.add_argument("--shards", type=_positive_int, default=3)
    p.add_argument("--requests", type=_positive_int, default=200)
    p.add_argument("--size", type=_positive_int, default=96)
    p.add_argument("--concurrency", type=_positive_int, default=16)
    p.add_argument("--engine-workers", type=_positive_int, default=2,
                   help="serve workers inside each shard process")
    p.add_argument("--variant", default="isp+m",
                   choices=["naive", "isp", "isp_warp", "isp+m", "auto"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-inflight", type=_positive_int, default=64)
    p.add_argument("--tenant-quota", type=_positive_int, default=None)
    p.add_argument("--sample-rate", type=float, default=0.0,
                   help="gateway head-sampling probability in [0, 1]")
    p.add_argument("--snapshot-interval", type=float, default=2.0,
                   help="autotune warm-start snapshot period (s); 0 off")
    p.add_argument("--warmstart-dir", default=None,
                   help="persistent warm-start directory (default: temp)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip bit-exact digest verification")
    p.add_argument("--prom", default=None,
                   help="write the merged (shard-labeled) Prometheus "
                        "exposition here")
    p.add_argument("--scaling", action="store_true",
                   help="run the 1 -> N shard scaling curve instead")
    p.add_argument("--shard-counts", default=None,
                   help="comma list for --scaling (default 1,2,4 or "
                        "$REPRO_CLUSTER_BENCH_SHARDS)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("codegen", help="dump generated CUDA C")
    _add_common(p)
    p.add_argument("--variant", default="isp",
                   choices=["naive", "isp", "isp_warp", "texture"])
    p.add_argument("--kernel-index", type=int, default=0)
    p.set_defaults(func=cmd_codegen)

    p = sub.add_parser("regions", help="print the ISP region decomposition")
    _add_common(p)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("devices", help="list simulated GPUs")
    p.set_defaults(func=cmd_devices)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
