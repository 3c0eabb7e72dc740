"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.relational import write_csv


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "USE X UPDATE(A) = 1 OUTPUT AVG(B)"])


class TestDatasetsCommand:
    def test_lists_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "german-syn" in out and "student-syn" in out

    def test_describe(self, capsys):
        assert main(["describe", "--dataset", "german-syn", "--rows", "50"]) == 0
        out = capsys.readouterr().out
        assert "Credit" in out
        assert "Status -> Credit" in out


class TestQueryCommand:
    def test_whatif_on_dataset(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "german-syn",
                "--rows",
                "300",
                "--regressor",
                "linear",
                "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "count(Post(Credit))" in out

    def test_json_output(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "german-syn",
                "--rows",
                "300",
                "--regressor",
                "linear",
                "--json",
                "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "what-if"
        assert payload["aggregate"] == "count"
        assert payload["value"] > 0

    def test_howto_on_dataset(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "german-syn",
                "--rows",
                "300",
                "--regressor",
                "linear",
                "--json",
                "USE Credit HOWTOUPDATE Status LIMIT 1 <= POST(Status) <= 4 "
                "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "how-to"
        assert "Status" in payload["plan"]

    def test_variant_flag(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "german-syn",
                "--rows",
                "300",
                "--variant",
                "indep",
                "--json",
                "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variant"] == "indep"

    def test_csv_query(self, tmp_path, capsys, figure1_product):
        path = write_csv(figure1_product, tmp_path / "product.csv")
        code = main(
            [
                "query",
                "--csv",
                str(path),
                "--key",
                "PID",
                "--relation-name",
                "Product",
                "--regressor",
                "linear",
                "USE Product UPDATE(Price) = 100 OUTPUT AVG(POST(Quality))",
            ]
        )
        assert code == 0
        assert "avg(Post(Quality))" in capsys.readouterr().out

    def test_csv_without_key_errors(self, tmp_path, capsys, figure1_product):
        path = write_csv(figure1_product, tmp_path / "product.csv")
        code = main(
            [
                "query",
                "--csv",
                str(path),
                "USE Product UPDATE(Price) = 100 OUTPUT AVG(Quality)",
            ]
        )
        assert code == 2
        assert "key" in capsys.readouterr().err

    def test_bad_query_reports_error(self, capsys):
        code = main(
            [
                "query",
                "--dataset",
                "german-syn",
                "--rows",
                "100",
                "USE Credit UPDATE(Status) OUTPUT AVG(Credit)",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSyntaxErrorDiagnostics:
    """`repro query` answers a parse failure with a caret-positioned message."""

    def test_caret_points_at_the_offending_token(self, capsys):
        text = "USE Credit UPDATE(Status) = 4 OUTPT AVG(POST(Credit))"
        code = main(["query", "--dataset", "german-syn", "--rows", "100", text])
        assert code == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert lines[0].startswith("syntax error:")
        assert "OUTPT" in lines[0]
        assert lines[1] == "  " + text
        # the caret sits exactly under the first character of OUTPT
        assert lines[2] == "  " + " " * text.index("OUTPT") + "^"

    def test_format_syntax_error_without_position(self):
        from repro.cli import format_syntax_error
        from repro.exceptions import QuerySyntaxError

        message = format_syntax_error("USE X", QuerySyntaxError("broken"))
        assert message == "syntax error: broken"

    def test_multiline_query_reports_line(self, capsys):
        text = "USE Credit\nUPDATE(Status) == 4\nOUTPUT AVG(POST(Credit))"
        code = main(["query", "--dataset", "german-syn", "--rows", "100", text])
        assert code == 2
        err = capsys.readouterr().err
        assert "(line 2)" in err
        assert "UPDATE(Status) == 4" in err


class TestJsonGoldenSchema:
    """--json output is byte-stable v1 wire schema (golden-file pinned)."""

    GOLDEN = "tests/api/fixtures/cli_query_json.json"
    ARGS = [
        "query",
        "--dataset",
        "german-syn",
        "--rows",
        "300",
        "--seed",
        "0",
        "--regressor",
        "linear",
        "--json",
        "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
    ]

    def _normalize(self, payload: dict) -> dict:
        # runtime is the one legitimately nondeterministic field; numeric
        # answers are rounded so the golden file survives BLAS/numpy skew
        out = dict(payload)
        out["runtime_seconds"] = 0.0
        if isinstance(out.get("value"), float):
            out["value"] = round(out["value"], 6)
        return out

    def test_json_output_matches_golden_and_validates_strictly(self, capsys):
        import pathlib

        from repro.api.schemas import WhatIfAnswer, answer_from_json

        assert main(self.ARGS) == 0
        payload = json.loads(capsys.readouterr().out)
        # strict schema validation: unknown/missing/mistyped fields raise
        answer = answer_from_json(payload)
        assert isinstance(answer, WhatIfAnswer)
        golden = json.loads(pathlib.Path(self.GOLDEN).read_text())
        assert self._normalize(payload) == golden


QUERY = "USE Credit UPDATE(Status) = 4 OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1"


@pytest.fixture(scope="module")
def jobs_port(tmp_path_factory):
    """The port of a door in front of a service with jobs attached."""
    from repro import EngineConfig, HypeRService
    from repro.aserve import BackgroundAsyncServer
    from repro.datasets import make_german_syn
    from repro.jobs import attach_jobs

    dataset = make_german_syn(200, seed=3)
    service = HypeRService(dataset.database, dataset.causal_dag, EngineConfig(regressor="linear"))
    jobs = attach_jobs(service, str(tmp_path_factory.mktemp("jobs") / "journal.jsonl"))
    try:
        with BackgroundAsyncServer(service, max_inflight=2) as server:
            yield str(server.address[1])
    finally:
        jobs.close()
        service.close()


class TestJobsCommand:
    """``repro jobs submit|status|result|cancel|list`` against a live door."""

    def jobs(self, capsys, port, *argv):
        code = main(["jobs", *argv, "--port", port, "--client-id", "cli"])
        return code, capsys.readouterr().out

    def test_submit_and_wait_follows_the_job_to_its_end(self, capsys, jobs_port):
        code, out = self.jobs(capsys, jobs_port, "submit", "--wait", QUERY)
        assert code == 0
        lines = out.strip().splitlines()
        assert "succeeded" in lines[-1] and "progress=1/1" in lines[-1]
        assert len(lines) >= 2  # at least one event line before the final status

    def test_submit_and_wait_as_json_ends_with_the_final_status(self, capsys, jobs_port):
        code, out = self.jobs(capsys, jobs_port, "submit", "--wait", "--json", QUERY, QUERY)
        assert code == 0
        events, final = out[: out.rindex("\n{")], json.loads(out[out.rindex("\n{"):])
        assert '"done": true' in events
        assert final["state"] == "succeeded" and final["job_kind"] == "batch"

    def test_status_result_cancel_and_list_of_a_submitted_job(self, capsys, jobs_port):
        code, out = self.jobs(capsys, jobs_port, "submit", "--json", "--priority", "high", QUERY)
        assert code == 0
        job_id = json.loads(out)["job_id"]
        code, out = self.jobs(capsys, jobs_port, "submit", QUERY)
        assert code == 0 and "progress=" in out
        other = out.split()[0]

        from repro.api import HypeRClient

        with HypeRClient("127.0.0.1", int(jobs_port), client_id="cli") as client:
            for waited in (job_id, other):
                for _ in client.job_events(waited, timeout_s=60):
                    pass

        code, out = self.jobs(capsys, jobs_port, "status", "--json", job_id)
        assert code == 0 and json.loads(out)["state"] == "succeeded"
        code, out = self.jobs(capsys, jobs_port, "status", job_id)
        assert code == 0 and out.startswith(job_id) and "succeeded" in out
        code, out = self.jobs(capsys, jobs_port, "result", job_id)
        assert code == 0 and json.loads(out)["job_id"] == job_id
        # cancelling a finished job is a no-op that reports its status
        code, out = self.jobs(capsys, jobs_port, "cancel", job_id)
        assert code == 0 and "succeeded" in out
        code, out = self.jobs(capsys, jobs_port, "cancel", "--json", job_id)
        assert code == 0 and json.loads(out)["state"] == "succeeded"
        code, out = self.jobs(capsys, jobs_port, "list")
        assert code == 0 and job_id in out and other in out
        assert out.strip().endswith("job(s)")
        code, out = self.jobs(capsys, jobs_port, "list", "--json")
        assert code == 0 and {job_id, other} <= {job["job_id"] for job in json.loads(out)["jobs"]}


HOWTO = (
    "USE Credit HOWTOUPDATE Status LIMIT 1 <= POST(Status) <= 4 "
    "TOMAXIMIZE COUNT(POST(Credit)) FOR POST(Credit) = 1"
)
ROWS = ["--dataset", "german-syn", "--rows", "200", "--regressor", "linear"]


class TestQueryPaths:
    """Each way ``repro query`` can run a query answers as the plain call does."""

    def value(self, capsys, *argv):
        assert main(["query", *ROWS, "--json", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    def test_trace_and_shards_answer_as_the_plain_call(self, capsys):
        plain = self.value(capsys, QUERY)
        traced = self.value(capsys, "--trace", QUERY)
        assert traced.pop("trace")["name"]
        assert traced["value"] == plain["value"]
        assert self.value(capsys, "--shards", "2", QUERY)["value"] == plain["value"]

    def test_a_traced_summary_ends_with_its_span_tree(self, capsys):
        assert main(["query", *ROWS, "--trace", QUERY]) == 0
        out = capsys.readouterr().out
        summary, tree = out.split("\n\n", 1)
        assert "count(Post(Credit))" in summary and "ms" in tree

    def test_exhaustive_how_to_solves_by_enumeration(self, capsys):
        greedy = self.value(capsys, HOWTO)
        exhaustive = self.value(capsys, "--exhaustive", HOWTO)
        assert exhaustive["kind"] == greedy["kind"] == "how-to"
        assert exhaustive["objective_value"] >= greedy["objective_value"] - 1e-9


@pytest.mark.parametrize("name, count", [("student-syn", "n_students"), ("amazon-syn", "n_products")])
def test_describe_sizes_a_dataset_by_its_own_count(capsys, name, count):
    assert main(["describe", "--dataset", name, "--rows", "30"]) == 0
    assert "Causal edges:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--role", "shard"], "--role shard requires --cluster-config"),
        (["--role", "shard", "--cluster-config", "{config}"], "--role shard requires --node-index"),
        (["--role", "shard", "--cluster-config", "{config}", "--node-index", "1"],
         "--node-index 1 out of range for a 1-node topology"),
    ],
)
def test_a_cluster_role_without_its_topology_is_an_error(capsys, tmp_path, argv, message):
    config = tmp_path / "cluster.json"
    config.write_text(json.dumps({"n_shards": 1, "nodes": [{"host": "127.0.0.1", "port": 9}]}))
    argv = [part.format(config=config) for part in argv]
    assert main(["serve", "--dataset", "german-syn", *argv]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_a_closed_stdout_exits_as_sigpipe_would(monkeypatch, tmp_path):
    """``repro ... | head``: a reader that went away is exit 141, and the
    interpreter's last flush writes to ``/dev/null``."""
    target = open(tmp_path / "stdout", "w")

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            pass

        def fileno(self):
            return target.fileno()

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    with target:
        assert main(["datasets"]) == 141
        target.write("after")  # lands on /dev/null now
    assert (tmp_path / "stdout").read_text() == ""


def test_a_failed_job_prints_its_error(capsys, jobs_port):
    owner = ["--port", jobs_port, "--client-id", "broken"]
    code = main(["jobs", "submit", "--wait", *owner, "NOT A QUERY"])
    assert code == 1
    assert "failed" in capsys.readouterr().out.strip().splitlines()[-1]
    code = main(["jobs", "list", *owner])
    assert code == 0 and "error[query_syntax]" in capsys.readouterr().out
