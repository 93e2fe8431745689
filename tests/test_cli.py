"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "GTX680" in out and "RTX2080" in out

    def test_run_verifies_against_reference(self, capsys):
        rc = main(["run", "--app", "gaussian", "--pattern", "mirror",
                   "--variant", "isp", "--size", "32", "--block", "16x4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max|err|" in out

    def test_run_texture_variant(self, capsys):
        rc = main(["run", "--app", "gaussian", "--pattern", "clamp",
                   "--variant", "texture", "--size", "32", "--block", "16x4"])
        assert rc == 0

    def test_regions(self, capsys):
        assert main(["regions", "--app", "bilateral", "--size", "512"]) == 0
        out = capsys.readouterr().out
        assert "BH_L=" in out
        assert "body fraction" in out

    def test_regions_degenerate(self, capsys):
        assert main(["regions", "--app", "bilateral", "--size", "16",
                     "--block", "32x4"]) == 0
        assert "DEGENERATE" in capsys.readouterr().out

    def test_predict(self, capsys):
        assert main(["predict", "--app", "gaussian", "--pattern", "repeat",
                     "--size", "512"]) == 0
        out = capsys.readouterr().out
        assert "G=" in out and "->" in out

    def test_codegen(self, capsys):
        assert main(["codegen", "--app", "gaussian", "--pattern", "clamp",
                     "--variant", "isp", "--size", "512"]) == 0
        out = capsys.readouterr().out
        assert "goto Body;" in out

    def test_measure_small(self, capsys):
        assert main(["measure", "--app", "gaussian", "--pattern", "repeat",
                     "--size", "256"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "isp+m choices" in out

    def test_invalid_block_rejected(self):
        with pytest.raises(SystemExit):
            main(["regions", "--app", "gaussian", "--block", "banana"])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--app", "unsharp"])

    def test_run_failed_verification_returns_nonzero(self, capsys):
        # An impossible tolerance forces the verification branch to fail;
        # the CLI must propagate that as a non-zero exit code.
        rc = main(["run", "--app", "gaussian", "--pattern", "clamp",
                   "--variant", "naive", "--size", "32", "--block", "16x4",
                   "--tolerance", "0"])
        assert rc == 1
        assert "verification FAILED" in capsys.readouterr().err

    def test_run_staging_variant_with_point_stage(self, capsys):
        rc = main(["run", "--app", "sobel", "--pattern", "repeat",
                   "--variant", "shared", "--size", "32", "--block", "16x4"])
        assert rc == 0
        assert "max|err| vs reference = 0.00e+00" in capsys.readouterr().out

    def test_run_compile_error_is_one_line(self, capsys):
        rc = main(["run", "--app", "gaussian", "--variant", "shared",
                   "--size", "50", "--block", "16x4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tile the image exactly" in err
        assert err.count("\n") == 1

    def test_measure_size_list(self, capsys):
        assert main(["measure", "--app", "gaussian", "--pattern", "repeat",
                     "--size", "128,256"]) == 0
        out = capsys.readouterr().out
        assert "128x128" in out and "256x256" in out
        assert out.count("isp+m choices") == 2

    def test_predict_size_list(self, capsys):
        assert main(["predict", "--app", "gaussian", "--pattern", "clamp",
                     "--size", "256,512"]) == 0
        out = capsys.readouterr().out
        assert "256x256" in out and "512x512" in out

    def test_invalid_size_list_rejected(self):
        for bad in ("banana", "512,", "0", "128,-4"):
            with pytest.raises(SystemExit):
                main(["predict", "--app", "gaussian", "--size", bad])


class TestServeBenchCli:
    def test_serve_bench_reports_cache_and_throughput(self, capsys):
        rc = main(["serve-bench", "--requests", "12", "--size", "48",
                   "--workers", "2", "--variant", "isp",
                   "--baseline-requests", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan-cache hit rate" in out
        assert "speedup over cold baseline" in out
        assert "errors" in out


class TestTuneCli:
    def test_observations_cover_every_candidate(self, capsys):
        """One observation column entry per tuner arm, and every request of
        a config is observed by exactly one of them."""
        from repro.serve import TUNE_CANDIDATES

        requests = 6
        rc = main(["tune", "--apps", "gaussian,sobel", "--patterns", "clamp",
                   "--size", "32", "--requests", str(requests),
                   "--trials", "1", "--workers", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        obs_header = "obs " + "/".join(TUNE_CANDIDATES)
        header = next(line for line in lines if obs_header in line)
        col = [cell.strip() for cell in header.split("|")].index(obs_header)
        rows = [line.split("|") for line in lines if "/GTX680 " in line]
        assert len(rows) == 2
        for row in rows:
            obs = [int(n) for n in row[col].split("/")]
            assert len(obs) == len(TUNE_CANDIDATES)
            assert sum(obs) == requests
