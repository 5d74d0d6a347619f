"""Tests for the ``onex`` command line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "index.npz"
    code = main(
        [
            "build",
            "--dataset",
            "ItalyPower",
            "--n-series",
            "12",
            "--st",
            "0.2",
            "--all-lengths",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return str(path)


class TestDatasets:
    def test_lists_generators(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("ItalyPower", "ECG", "StarLightCurves"):
            assert name in out


class TestBuild:
    def test_build_reports_stats(self, index_path, capsys):
        assert main(["info", index_path]) == 0
        out = capsys.readouterr().out
        assert "representatives" in out
        assert "ItalyPower" in out

    def test_build_requires_source(self, tmp_path, capsys):
        code = main(["build", "--out", str(tmp_path / "x.npz")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_build_from_ucr_file(self, tmp_path, capsys):
        ucr = tmp_path / "tiny.txt"
        rows = []
        for i in range(6):
            values = ",".join(str(0.1 * ((i + j) % 7)) for j in range(12))
            rows.append(f"1,{values}")
        ucr.write_text("\n".join(rows) + "\n")
        out_path = tmp_path / "ucr.npz"
        code = main(
            ["build", "--ucr-file", str(ucr), "--out", str(out_path), "--st", "0.3"]
        )
        assert code == 0
        assert out_path.exists()

    def test_build_reports_progress(self, index_path, capsys, tmp_path):
        path = tmp_path / "progress.npz"
        code = main(
            [
                "build",
                "--dataset",
                "ItalyPower",
                "--n-series",
                "6",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "subsequences in" in out  # per-length throughput line
        assert "/s)" in out

    def test_build_minibatch_mode(self, tmp_path, capsys):
        path = tmp_path / "minibatch.npz"
        code = main(
            [
                "build",
                "--dataset",
                "ItalyPower",
                "--n-series",
                "6",
                "--assign-mode",
                "minibatch",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "assign mode:     minibatch" in out
        assert "build profile:" in out

    def test_info_shows_build_profile(self, index_path, capsys):
        assert main(["info", index_path]) == 0
        out = capsys.readouterr().out
        assert "assign mode:     sequential" in out
        assert "build profile:" in out
        assert "store" in out  # size line includes the store component


class TestQuery:
    def test_query_by_series_reference(self, index_path, capsys):
        code = main(
            [
                "query",
                index_path,
                "--series",
                "2",
                "--start",
                "3",
                "--length",
                "12",
                "--k",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rank" in out
        assert "(X" in out

    def test_query_from_csv(self, index_path, tmp_path, capsys):
        csv = tmp_path / "seq.csv"
        csv.write_text("\n".join(str(0.3 + 0.02 * i) for i in range(12)))
        code = main(["query", index_path, "--csv", str(csv)])
        assert code == 0
        assert "rank" in capsys.readouterr().out

    def test_query_within(self, index_path, capsys):
        code = main(
            [
                "query",
                index_path,
                "--series",
                "0",
                "--length",
                "12",
                "--within",
                "0.4",
                "--exact",
                "12",
            ]
        )
        assert code == 0

    def test_query_requires_input(self, index_path, capsys):
        assert main(["query", index_path]) == 1
        assert "error" in capsys.readouterr().err


class TestErrorsNotTracebacks:
    """Bad input ends in ``error: ...`` and exit 1, never a traceback."""

    @pytest.mark.parametrize("series", ["99", "-1"])
    def test_query_series_out_of_range(self, index_path, capsys, series):
        assert main(["query", index_path, "--series", series]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: series index {series} out of range for N=12\n"
        assert captured.out == ""  # -1 must not wrap around to the last series

    def test_build_unreadable_ucr_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.ucr"
        out_path = tmp_path / "x.onex"
        code = main(["build", "--ucr-file", str(missing), "--out", str(out_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read UCR file")
        assert str(missing) in err
        assert "Traceback" not in err
        assert not out_path.exists()


class TestSeasonalAndRecommend:
    def test_seasonal(self, index_path, capsys):
        code = main(["seasonal", index_path, "--length", "12", "--series", "1"])
        assert code == 0
        assert "seasonal similarity" in capsys.readouterr().out

    def test_recommend_all(self, index_path, capsys):
        code = main(["recommend", index_path])
        assert code == 0
        out = capsys.readouterr().out
        for word in ("Strict", "Medium", "Loose"):
            assert word in out

    def test_recommend_single_degree(self, index_path, capsys):
        code = main(["recommend", index_path, "--degree", "S", "--length", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Strict" in out
        assert "length 12" in out


class TestQueryLanguageCommand:
    def test_ql_similarity(self, index_path, capsys):
        code = main(
            ["ql", index_path, "OUTPUT X FROM D WHERE seq = X0, k = 2 MATCH = Any"]
        )
        assert code == 0
        assert "rank" in capsys.readouterr().out

    def test_ql_threshold(self, index_path, capsys):
        code = main(["ql", index_path, "OUTPUT ST FROM D WHERE simDegree = NULL"])
        assert code == 0
        assert "Strict" in capsys.readouterr().out

    def test_ql_registered_sequence(self, index_path, tmp_path, capsys):
        csv = tmp_path / "probe.csv"
        csv.write_text(",".join(str(0.2 + 0.03 * i) for i in range(12)))
        code = main(
            [
                "ql",
                index_path,
                "OUTPUT X FROM D WHERE seq = probe MATCH = Exact(12)",
                "--seq",
                f"probe={csv}",
            ]
        )
        assert code == 0

    def test_ql_bad_seq_spec(self, index_path, capsys):
        code = main(["ql", index_path, "OUTPUT X FROM D WHERE seq = p", "--seq", "nofile"])
        assert code == 1

    def test_ql_parse_error_reported(self, index_path, capsys):
        code = main(["ql", index_path, "FETCH things"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestServe:
    def _serve(self, index_path, requests, monkeypatch, capsys, extra=()):
        import io
        import json
        import sys

        lines = "\n".join(json.dumps(request) for request in requests) + "\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
        code = main(["serve", index_path, "--workers", "2", *extra])
        assert code == 0
        out = capsys.readouterr().out
        return [json.loads(line) for line in out.splitlines() if line.strip()]

    def test_serve_answers_requests(self, index_path, monkeypatch, capsys):
        values = [0.3 + 0.02 * i for i in range(12)]
        responses = self._serve(
            index_path,
            [
                {"op": "query", "values": values, "length": 12, "id": 1},
                {"op": "info", "id": 2},
            ],
            monkeypatch,
            capsys,
        )
        assert [r["id"] for r in responses] == [1, 2]
        assert responses[0]["ok"] and responses[0]["matches"]
        assert responses[1]["ok"]
        cache = responses[1]["info"]["cache"]
        assert cache["misses"] == 1  # the query op above missed once

    def test_serve_survives_bad_requests(self, index_path, monkeypatch, capsys):
        responses = self._serve(
            index_path,
            [{"op": "unknown"}, {"op": "recommend"}],
            monkeypatch,
            capsys,
        )
        assert [r["ok"] for r in responses] == [False, True]
