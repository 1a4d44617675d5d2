"""CLI behavior: exit codes, JSON reports, determinism of artifacts."""

import json
import os
import subprocess
import sys

import pytest

RUN = [sys.executable, "-m", "stochlyap.cli"]


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("STOCH_LYAP_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + args, capture_output=True, text=True, env=env)


@pytest.fixture
def det_model(tmp_path):
    path = tmp_path / "det.json"
    path.write_text(json.dumps({
        "form": "affine", "n": 2, "Z": 1,
        "A": [[[0.5, 0.0], [0.0, 0.8]], [[0.0, 0.0], [0.0, 0.0]]],
        "dist": {"coords": [{"constant": {"value": 0.0}}]},
    }))
    return str(path)


@pytest.fixture
def unstable_model(tmp_path):
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({
        "form": "switched", "n": 1, "Z": 1,
        "modes": [[[2.0]], [[0.0]]],
        "dist": {"coords": [{"discrete": {"values": [1, 2], "probs": [0.5, 0.5]}}]},
    }))
    return str(path)


@pytest.fixture
def control_model(tmp_path):
    path = tmp_path / "ctrl.json"
    path.write_text(json.dumps({
        "form": "affine", "n": 1, "Z": 1, "m": 1,
        "A": [[[0.0]], [[1.0]]],
        "B": [[[1.0]], [[0.0]]],
        "dist": {"coords": [{"normal": {"mean": 0.0, "stddev": 0.5}}]},
    }))
    return str(path)


class TestAnalyze:
    def test_stable_exit_and_report(self, det_model):
        out = run_cli(["analyze", det_model, "--tol", "1e-9"])
        assert out.returncode == 0
        report = json.loads(out.stdout)
        assert report["report"]["lambda_min"] == pytest.approx(0.8, abs=1e-9)
        assert report["report"]["stable"] is True
        assert report["config"]["tool_version"]

    def test_unstable_exit(self, unstable_model):
        out = run_cli(["analyze", unstable_model])
        assert out.returncode == 2
        assert json.loads(out.stdout)["report"]["stable"] is False

    def test_model_echo_round_trip(self, det_model):
        out = run_cli(["analyze", det_model])
        echoed = json.loads(out.stdout)["model"]
        from stochlyap.sysmodel import model_from_obj

        assert model_from_obj(echoed).to_obj() == echoed

    def test_lambda_flag(self, det_model):
        out = run_cli(["analyze", det_model, "--lambda", "0.9"])
        at = json.loads(out.stdout)["at_lambda"]
        assert at["feasible"] is True and at["margin"] > 0
        out = run_cli(["analyze", det_model, "--lambda", "0.7"])
        assert json.loads(out.stdout)["at_lambda"]["feasible"] is False

    def test_analytic_forbidden_for_sampled(self, tmp_path):
        from stochlyap.demo_models import example2_model

        path = tmp_path / "sampled.json"
        path.write_text(json.dumps(example2_model().to_obj()))
        out = run_cli(["analyze", str(path), "--moments", "analytic"])
        assert out.returncode == 1
        assert "error" in out.stderr

    def test_missing_file(self):
        out = run_cli(["analyze", "/nonexistent/model.json"])
        assert out.returncode == 1

    def test_moments_cache(self, control_model, tmp_path):
        cache = str(tmp_path / "cache.json")
        first = run_cli(["analyze", control_model, "--moments", "mc:2000:5",
                         "--moments-cache", cache])
        assert first.returncode in (0, 2) and os.path.exists(cache)
        second = run_cli(["analyze", control_model, "--moments-cache", cache])
        assert json.loads(second.stdout)["config"]["moments"]["method"] == "cache"

    def test_moments_cache_of_another_model_rejected(self, tmp_path):
        # same (n, m, Z), different modes: the cache must not be reused
        cache = str(tmp_path / "cache.json")
        paths = []
        for a1 in (2.0, 0.2):
            path = tmp_path / f"switched_{a1}.json"
            path.write_text(json.dumps({
                "form": "switched", "n": 1, "Z": 1,
                "modes": [[[a1]], [[0.5]]],
                "dist": {"coords": [{"discrete": {"values": [1, 2], "probs": [0.5, 0.5]}}]},
            }))
            paths.append(str(path))
        first = run_cli(["analyze", paths[0], "--moments-cache", cache])
        assert first.returncode == 2 and os.path.exists(cache)
        second = run_cli(["analyze", paths[1], "--moments-cache", cache])
        assert second.returncode == 1 and not second.stdout
        assert second.stderr.startswith("error:") and "cache" in second.stderr
        fresh = run_cli(["analyze", paths[1]])
        assert json.loads(fresh.stdout)["report"]["stable"] is True


class TestSimulate:
    def test_csv_deterministic_serial_vs_parallel(self, det_model, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        r1 = run_cli(["simulate", det_model, "--x0", "1,0", "--paths", "3000",
                      "--kmax", "40", "--seed", "11", "--out", a],
                     env_extra={"STOCH_LYAP_THREADS": "1"})
        r2 = run_cli(["simulate", det_model, "--x0", "1,0", "--paths", "3000",
                      "--kmax", "40", "--seed", "11", "--out", b, "--threads", "4"],
                     env_extra={"STOCH_LYAP_THREADS": "4"})
        assert r1.returncode == 0 and r2.returncode == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_gain_file(self, control_model, tmp_path):
        gain = tmp_path / "F.json"
        gain.write_text(json.dumps({"F": [[-0.0]]}))
        out_csv = str(tmp_path / "rms.csv")
        r = run_cli(["simulate", control_model, "--x0", "1", "--paths", "200",
                     "--kmax", "5", "--seed", "2", "--gain", str(gain),
                     "--out", out_csv])
        assert r.returncode == 0
        lines = open(out_csv).read().strip().split("\n")
        assert lines[0] == "k,rms" and len(lines) == 7

    def test_threads_env_not_an_integer(self, det_model):
        r = run_cli(["analyze", det_model], env_extra={"STOCH_LYAP_THREADS": "two"})
        assert r.returncode == 1 and not r.stdout
        assert r.stderr.startswith("error:") and "STOCH_LYAP_THREADS" in r.stderr
        assert "Traceback" not in r.stderr and len(r.stderr.splitlines()) == 1

    def test_threads_env_caps(self, det_model, tmp_path):
        r = run_cli(["simulate", det_model, "--x0", "1,0", "--paths", "100",
                     "--kmax", "5", "--seed", "1", "--threads", "8",
                     "--out", str(tmp_path / "c.csv")],
                    env_extra={"STOCH_LYAP_THREADS": "2"})
        assert json.loads(r.stdout)["config"]["threads"] == 2


class TestDiscretize:
    def test_matches_library(self, tmp_path):
        plant = {"A_c": [[0.0]], "B_c": [[1.0]]}
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(plant))
        out = run_cli(["discretize", str(path), "--h", "0.5"])
        obj = json.loads(out.stdout)
        assert obj["A_op"] == [[1.0]]
        assert obj["B_op"][0][0] == pytest.approx(0.5)


class TestSynthesizeAndExport:
    def test_synthesize_scalar(self, control_model):
        out = run_cli(["synthesize", control_model, "--tol", "1e-3"])
        assert out.returncode == 0
        res = json.loads(out.stdout)["result"]
        assert 0.5 <= res["lambda"] <= 0.52
        assert res["closed_loop_report"]["stable"] is True

    def test_synthesize_infeasible_exit(self, tmp_path):
        path = tmp_path / "uncontrollable.json"
        path.write_text(json.dumps({
            "form": "affine", "n": 1, "Z": 1, "m": 1,
            "A": [[[2.0]], [[0.0]]], "B": [[[0.0]], [[0.0]]],
            "dist": {"coords": [{"constant": {"value": 0.0}}]},
        }))
        out = run_cli(["synthesize", str(path)])
        assert out.returncode == 2
        assert json.loads(out.stdout)["status"] == "not-stabilizable"

    def test_export_command(self, control_model, tmp_path):
        target = str(tmp_path / "prob.dat-s")
        out = run_cli(["export-sdpa", control_model, "--lambda", "0.9",
                       "--out", target])
        assert out.returncode == 0
        from stochlyap import sdpa

        c, F, sizes = sdpa.read_problem(target)
        assert len(c) == 2  # one X scalar + one Y scalar
        assert sizes == [3, 1]

    def test_export_backend_via_synthesize(self, control_model, tmp_path):
        target = str(tmp_path / "prob2.dat-s")
        out = run_cli(["synthesize", control_model, "--backend",
                       f"sdpa-export:{target}", "--lambda", "0.9"])
        assert out.returncode == 0
        assert json.loads(out.stdout)["status"] == "exported"
        assert os.path.exists(target)

    def test_export_backend_requires_lambda(self, control_model, tmp_path):
        out = run_cli(["synthesize", control_model, "--backend",
                       f"sdpa-export:{tmp_path / 'x.dat-s'}"])
        assert out.returncode == 1


class TestReproCommands:
    def test_repro_example2_small(self, tmp_path):
        # fast smoke of the full pipeline; the acceptance suite runs the
        # million-sample version
        out = run_cli(["repro-example2", "--samples", "20000", "--seed", "7",
                       "--tol", "5e-3", "--paths", "10",
                       "--out-dir", str(tmp_path)])
        assert out.returncode == 0, out.stderr
        obj = json.loads((tmp_path / "example2_report.json").read_text())
        assert obj["status"] == "ok"
        assert 0.88 <= obj["achieved_lambda"] <= 0.96
        assert obj["intersample"]["paths"] == 10
        assert obj["intersample"]["max_final_ratio"] < 1.0


class TestMisc:
    def test_version(self):
        out = run_cli(["--version"])
        assert out.returncode == 0
        assert "stoch-lyap" in out.stdout and "schema" in out.stdout

    def test_atomic_out_file(self, det_model, tmp_path):
        target = str(tmp_path / "report.json")
        run_cli(["analyze", det_model, "--out", target])
        obj = json.load(open(target))
        assert obj["report"]["stable"] is True
