"""Command-line interface for HypeR.

Lets a user run what-if / how-to queries written in the SQL extension against
either one of the bundled synthetic datasets or a directory of CSV files, and
inspect the available datasets, without writing any Python::

    python -m repro datasets
    python -m repro describe --dataset german-syn
    python -m repro query --dataset german-syn \
        "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"
    python -m repro query --csv-dir data/ --base-relation Orders --key OrderID "..."
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .core.config import EngineConfig, Variant
from .core.engine import HypeR
from .datasets import available_datasets, make_dataset
from .exceptions import HypeRError, QuerySyntaxError
from .relational.csvio import read_csv
from .relational.database import Database

__all__ = ["main", "build_parser", "format_syntax_error"]


def format_syntax_error(text: str, error: QuerySyntaxError) -> str:
    """A caret-positioned diagnostic for a query that failed to parse.

    Shows the offending source line with a ``^`` under the exact character
    the parser rejected (the lexer stamps every token with its offset)::

        syntax error: expected keyword 'OUTPUT', found 'OUTPT'
          USE Credit UPDATE(Status) = 4 OUTPT AVG(POST(Credit))
                                        ^
    """
    message = f"syntax error: {error}"
    if error.position is None or not (0 <= error.position <= len(text)):
        return message
    line_start = text.rfind("\n", 0, error.position) + 1
    line_end = text.find("\n", error.position)
    if line_end == -1:
        line_end = len(text)
    column = error.position - line_start
    lines = [message]
    if error.line is not None and "\n" in text:
        lines.append(f"  (line {error.line})")
    lines.append("  " + text[line_start:line_end])
    lines.append("  " + " " * column + "^")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HypeR: probabilistic causal what-if and how-to queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the bundled synthetic datasets")

    describe = sub.add_parser("describe", help="describe a dataset (relations, causal graph)")
    describe.add_argument("--dataset", required=True, choices=available_datasets())
    describe.add_argument("--rows", type=int, default=1_000, help="rows to generate")
    describe.add_argument("--seed", type=int, default=0)

    query = sub.add_parser("query", help="run a what-if or how-to query")
    query.add_argument("text", help="the query in the HypeR SQL extension")
    source = query.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", choices=available_datasets(), help="bundled dataset")
    source.add_argument("--csv", help="path to a single CSV file to query")
    query.add_argument("--rows", type=int, default=1_000, help="rows to generate (datasets)")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--key", nargs="+", help="key attribute(s) of the CSV relation")
    query.add_argument("--relation-name", default=None, help="relation name for the CSV data")
    query.add_argument(
        "--variant",
        default=Variant.HYPER,
        choices=list(Variant.ALL),
        help="engine variant (hyper, hyper-nb, hyper-sampled, indep)",
    )
    query.add_argument("--sample-size", type=int, default=None)
    query.add_argument("--regressor", default="forest", choices=["forest", "linear", "ridge"])
    query.add_argument("--exhaustive", action="store_true", help="use Opt-HowTo for how-to queries")
    query.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    query.add_argument(
        "--trace",
        action="store_true",
        help="print the query's span tree (parse, cache, execute, shard workers)",
    )
    query.add_argument(
        "--shards",
        type=int,
        default=None,
        help="evaluate through a pool of N shard worker processes "
        "(the query is dealt whole to one; answers are identical)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve the /v1 API over HTTP (endpoints: docs/api.md)",
    )
    serve.add_argument("--dataset", required=True, choices=available_datasets())
    serve.add_argument("--rows", type=int, default=1_000, help="rows to generate")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000)
    serve.add_argument(
        "--variant",
        default=Variant.HYPER,
        choices=list(Variant.ALL),
        help="engine variant (hyper, hyper-nb, hyper-sampled, indep)",
    )
    serve.add_argument("--sample-size", type=int, default=None)
    serve.add_argument("--regressor", default="forest", choices=["forest", "linear", "ridge"])
    serve.add_argument(
        "--workers", type=int, default=None, help="worker threads for batch execution"
    )
    serve.add_argument(
        "--execution",
        default="threads",
        choices=["threads", "processes"],
        help="batch execution mode: in-process threads (default) or a "
        "persistent pool of shard worker processes",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="number of shards/worker processes with --execution processes "
        "(default: --workers, else CPU count capped at 8)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="concurrent query executions admitted "
        "(default: --workers, else CPU count capped at 8)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help="bounded admission queue beyond --max-inflight; "
        "excess requests get 429 + Retry-After (default: 2x max-inflight)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for in-flight requests on "
        "SIGTERM/SIGINT before giving up",
    )
    serve.add_argument(
        "--warm-query",
        action="append",
        default=None,
        metavar="TEXT",
        help="query text to prepare() at startup so the "
        "first request hits warm caches (repeatable)",
    )
    serve.add_argument(
        "--jobs-dir",
        default=None,
        metavar="DIR",
        help="enable the durable async job service (POST /v1/jobs): directory "
        "holding the crash-safe job journal, replayed on restart (single and "
        "coordinator roles)",
    )
    serve.add_argument(
        "--jobs-workers",
        type=int,
        default=1,
        help="background job executor threads (with --jobs-dir; default 1)",
    )
    serve.add_argument(
        "--role",
        default="single",
        choices=["single", "coordinator", "shard"],
        help="cluster role: single (default) serves the whole database "
        "locally; shard holds the whole snapshot too and answers whole "
        "queries on the internal /v1/partial; coordinator deals each query "
        "to one node behind the unchanged public API (answers are "
        "bitwise-identical to single)",
    )
    serve.add_argument(
        "--cluster-config",
        default=None,
        metavar="PATH",
        help="cluster topology JSON (n_shards, nodes, coordinator — see "
        "repro.cluster.topology); required for --role coordinator/shard",
    )
    serve.add_argument(
        "--node-index",
        type=int,
        default=None,
        help="with --role shard: this node's index into the topology's "
        "nodes list (determines its bind address)",
    )

    jobs = sub.add_parser(
        "jobs",
        help="submit and manage durable server-side jobs (/v1/jobs)",
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    def _jobs_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8000)
        p.add_argument(
            "--client-id",
            default="",
            help="X-Client-Id for job ownership and quotas "
            "(default: server-assigned anonymous id)",
        )
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    submit = jobs_sub.add_parser(
        "submit", help="enqueue one query (or several, as a batch job)"
    )
    submit.add_argument("text", nargs="+", help="query text(s) in the SQL extension")
    submit.add_argument("--priority", default="normal", choices=["high", "normal", "low"])
    submit.add_argument(
        "--run-at-generation",
        type=int,
        default=None,
        help="defer execution until the store has committed this generation",
    )
    submit.add_argument("--exhaustive", action="store_true", help="Opt-HowTo for how-to queries")
    submit.add_argument(
        "--wait",
        action="store_true",
        help="follow the job's event stream and exit when it finishes",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="with --wait: seconds to wait for the job to finish",
    )
    _jobs_common(submit)

    status = jobs_sub.add_parser("status", help="show a job's current status")
    status.add_argument("job_id")
    _jobs_common(status)

    result = jobs_sub.add_parser("result", help="fetch a finished job's result document")
    result.add_argument("job_id")
    _jobs_common(result)

    cancel = jobs_sub.add_parser("cancel", help="request cancellation (idempotent)")
    cancel.add_argument("job_id")
    _jobs_common(cancel)

    listing = jobs_sub.add_parser("list", help="list this client's jobs")
    _jobs_common(listing)
    return parser


def _load_session(args: argparse.Namespace) -> HypeR:
    config = EngineConfig(
        variant=args.variant,
        regressor=args.regressor,
        sample_size=args.sample_size,
    )
    if args.dataset:
        dataset = make_dataset(args.dataset, **_generator_kwargs(args))
        return HypeR(dataset.database, dataset.causal_dag, config)
    if not args.key:
        raise HypeRError("--key is required when querying a CSV file")
    name = args.relation_name or "Data"
    relation = read_csv(args.csv, name, key=tuple(args.key))
    return HypeR(Database([relation]), None, config)


def _generator_kwargs(args: argparse.Namespace) -> dict:
    if args.dataset == "student-syn":
        return {"n_students": args.rows, "seed": args.seed}
    if args.dataset == "amazon-syn":
        return {"n_products": args.rows, "seed": args.seed}
    return {"n_rows": args.rows, "seed": args.seed}


def _attach_jobs(service, args: argparse.Namespace) -> None:
    """Wire the durable job service onto a serving store (``--jobs-dir``)."""
    import os

    from .jobs.manager import attach_jobs

    os.makedirs(args.jobs_dir, exist_ok=True)
    manager = attach_jobs(
        service,
        os.path.join(args.jobs_dir, "jobs.journal.jsonl"),
        n_workers=max(1, args.jobs_workers),
    )
    print(
        f"jobs: journal {manager.journal.path} "
        f"({len(manager.queue)} queued after replay, "
        f"{args.jobs_workers} worker(s))",
        flush=True,
    )


def _format_job(status) -> str:
    line = (
        f"{status.job_id}  {status.state:<9}  {status.kind:<5}  "
        f"priority={status.priority}  progress={status.completed}/{status.total}  "
        f"attempts={status.attempts}/{status.max_attempts}"
    )
    if status.error is not None:
        line += f"  error[{status.error_code}]: {status.error}"
    return line


def _jobs_command(args: argparse.Namespace) -> int:
    """``repro jobs submit|status|result|cancel|list`` against a running server."""
    from .api import HypeRClient

    with HypeRClient(args.host, args.port, client_id=args.client_id) as client:
        if args.jobs_command == "submit":
            texts = list(args.text)
            status = client.submit_job(
                texts[0] if len(texts) == 1 else None,
                queries=texts if len(texts) > 1 else None,
                priority=args.priority,
                run_at_generation=args.run_at_generation,
                exhaustive=args.exhaustive,
            )
            if not args.wait:
                if args.json:
                    print(json.dumps(status.to_json(), indent=2))
                else:
                    print(_format_job(status))
                return 0
            for event in client.job_events(status.job_id, timeout_s=args.timeout):
                if args.json:
                    print(json.dumps(event))
                elif not event.get("done"):
                    state = event.get("state", "?")
                    progress = event.get("progress") or {}
                    extra = (
                        f"  {progress.get('completed')}/{progress.get('total')}"
                        if progress
                        else ""
                    )
                    print(f"{status.job_id}  {state}{extra}", flush=True)
            final = client.job(status.job_id)
            if args.json:
                print(json.dumps(final.to_json(), indent=2))
            else:
                print(_format_job(final))
            return 0 if final.state == "succeeded" else 1
        if args.jobs_command == "status":
            status = client.job(args.job_id)
            if args.json:
                print(json.dumps(status.to_json(), indent=2))
            else:
                print(_format_job(status))
            return 0
        if args.jobs_command == "result":
            print(json.dumps(client.job_result(args.job_id), indent=2))
            return 0
        if args.jobs_command == "cancel":
            status = client.cancel_job(args.job_id)
            if args.json:
                print(json.dumps(status.to_json(), indent=2))
            else:
                print(_format_job(status))
            return 0
        # list
        listing = client.jobs()
        if args.json:
            print(json.dumps(listing.to_json(), indent=2))
        else:
            for status in listing.jobs:
                print(_format_job(status))
            print(f"{len(listing.jobs)} job(s)")
        return 0


def _serve_cluster(args: argparse.Namespace) -> int:
    """``repro serve --role coordinator|shard``: one node of a cluster.

    Every node regenerates the same dataset deterministically (same
    ``--dataset/--rows/--seed``), so every node holds the identical snapshot
    and the coordinator's answers are bitwise equal to a single-node
    deployment.
    """
    from .aserve import run_async_server
    from .cluster import ClusterCoordinator, ClusterTopology, ShardServer

    if not args.cluster_config:
        raise HypeRError(f"--role {args.role} requires --cluster-config")
    topology = ClusterTopology.load(args.cluster_config)
    config = EngineConfig(
        variant=args.variant,
        regressor=args.regressor,
        sample_size=args.sample_size,
    )
    if args.role == "coordinator":
        address = topology.coordinator
        host = address.host if address is not None else args.host
        port = address.port if address is not None else args.port
        coordinator = ClusterCoordinator(topology, config, max_workers=args.workers)
        print(
            f"cluster coordinator: {topology.n_shards} shards over "
            f"{topology.n_nodes} nodes",
            flush=True,
        )
        if args.jobs_dir:
            _attach_jobs(coordinator, args)
        try:
            run_async_server(
                coordinator,
                host=host,
                port=port,
                max_inflight=args.max_inflight,
                queue_depth=args.queue_depth,
                drain_timeout=args.drain_timeout,
                warm_queries=args.warm_query or (),
            )
        finally:
            coordinator.close()
        return 0
    # shard
    if args.node_index is None:
        raise HypeRError("--role shard requires --node-index")
    if not 0 <= args.node_index < topology.n_nodes:
        raise HypeRError(
            f"--node-index {args.node_index} out of range for a "
            f"{topology.n_nodes}-node topology"
        )
    dataset = make_dataset(args.dataset, **_generator_kwargs(args))
    address = topology.nodes[args.node_index]
    shard = ShardServer(
        dataset.database,
        dataset.causal_dag,
        config,
        shard_index=topology.shard_of_node(args.node_index),
        n_shards=topology.n_shards,
        max_workers=args.workers,
    )
    print(
        f"cluster shard node {args.node_index} (shard "
        f"{shard.shard_index}/{topology.n_shards}) over dataset "
        f"{args.dataset!r} ({dataset.database.total_rows} rows)",
        flush=True,
    )
    try:
        run_async_server(
            shard.service,
            host=address.host,
            port=address.port,
            max_inflight=args.max_inflight,
            queue_depth=args.queue_depth,
            drain_timeout=args.drain_timeout,
            warm_queries=args.warm_query or (),
            app_factory=shard.app_factory,
        )
    finally:
        shard.close()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # stdout was closed by a downstream reader (e.g. ``repro ... | head``);
        # devnull the fd so the interpreter's final flush can't raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the conventional exit code


def _dispatch(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "datasets":
            for name in available_datasets():
                print(name)
            return 0
        if args.command == "describe":
            dataset = make_dataset(args.dataset, **_generator_kwargs(args))
            print(dataset.summary())
            print(dataset.description)
            print()
            print(dataset.database.describe())
            print()
            print("Causal edges:")
            for edge in dataset.causal_dag.edges:
                marker = " (cross-tuple)" if edge.cross_tuple else ""
                print(f"  {edge.source} -> {edge.target}{marker}")
            return 0
        if args.command == "jobs":
            return _jobs_command(args)
        if args.command == "serve":
            if args.role != "single":
                return _serve_cluster(args)
            from .aserve import run_async_server
            from .service import HypeRService

            dataset = make_dataset(args.dataset, **_generator_kwargs(args))
            config = EngineConfig(
                variant=args.variant,
                regressor=args.regressor,
                sample_size=args.sample_size,
            )
            service = HypeRService(
                dataset.database,
                dataset.causal_dag,
                config,
                max_workers=args.workers,
                execution=args.execution,
                n_shards=args.shards,
            )
            print(
                f"serving dataset {args.dataset!r} ({dataset.database.total_rows} rows)",
                flush=True,
            )
            if args.jobs_dir:
                _attach_jobs(service, args)
            # warm-up (start_pool + prepare) happens inside the runner,
            # before any executor thread exists
            try:
                run_async_server(
                    service,
                    host=args.host,
                    port=args.port,
                    max_inflight=args.max_inflight,
                    queue_depth=args.queue_depth,
                    drain_timeout=args.drain_timeout,
                    warm_queries=args.warm_query or (),
                )
            finally:
                service.close()  # idempotent; covers startup failures
            return 0
        # query
        session = _load_session(args)
        parsed = session.parse(args.text)
        from .core.queries import HowToQuery

        exhaustive = isinstance(parsed, HowToQuery) and args.exhaustive
        trace_ctx = None
        if args.trace:
            from .obs.trace import TraceContext

            trace_ctx = TraceContext()
        if args.shards is not None:
            with session.service(execution="processes", n_shards=args.shards) as service:
                result = service.execute(parsed, exhaustive=exhaustive, trace=trace_ctx)
        elif trace_ctx is not None:
            # tracing spans live in the service layer; run the query through
            # an in-process service so the tree is populated
            with session.service() as service:
                result = service.execute(parsed, exhaustive=exhaustive, trace=trace_ctx)
        elif exhaustive:
            result = session.how_to(parsed, exhaustive=True)
        else:
            result = session.execute(args.text)
        if args.json:
            # result.payload() serializes through the v1 wire schemas, so
            # --json output and the HTTP API emit the identical shape
            payload = result.payload()
            if trace_ctx is not None:
                payload["trace"] = trace_ctx.to_wire()
            print(json.dumps(payload, indent=2, default=str))
        else:
            print(result.summary())
            if trace_ctx is not None:
                from .obs.trace import format_span_tree

                print()
                print(format_span_tree(trace_ctx.to_wire()))
        return 0
    except QuerySyntaxError as error:
        print(format_syntax_error(getattr(args, "text", ""), error), file=sys.stderr)
        return 2
    except HypeRError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
