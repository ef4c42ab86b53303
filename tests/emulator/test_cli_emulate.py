"""The ``emulate fit`` / ``emulate check`` CLI round trip."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.emulator import SCHEMA, SurfaceBank


@pytest.fixture(scope="module")
def bank_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("emulate") / "bank.json"
    assert main(["emulate", "fit", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def fast_bank_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("emulate-fast") / "bank.json"
    assert main(["emulate", "fit", "--fast-config", "--out", str(path)]) == 0
    return path


class TestFit:
    def test_bank_file_is_schema_tagged_and_complete(self, bank_path):
        payload = json.loads(bank_path.read_text())
        assert payload["schema"] == SCHEMA
        # three quantities x three loads, adaptive utility only
        assert len(payload["surfaces"]) == 9
        keys = {
            f"{s['quantity']}/{s['load']}/{s['utility']}"
            for s in payload["surfaces"]
        }
        assert "delta/poisson/adaptive" in keys
        assert "gamma/algebraic/adaptive" in keys
        for surf in payload["surfaces"]:
            assert surf["certified_bound"] > 0.0


class TestCheck:
    def test_saved_bank_passes_fresh_probes(self, bank_path, capsys):
        assert (
            main(["emulate", "check", "--bank", str(bank_path), "--probes", "13"])
            == 0
        )
        out = capsys.readouterr().out
        assert "ok  " in out
        assert "delta/poisson/adaptive" in out
        assert "FAIL" not in out

    def test_json_report(self, bank_path, capsys):
        assert (
            main(
                [
                    "emulate",
                    "check",
                    "--bank",
                    str(bank_path),
                    "--probes",
                    "13",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["surfaces"]) == 9
        assert all(row["residual"] <= 1.0 for row in payload["surfaces"])

    def test_unreadable_bank_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bank.json"
        bad.write_text("{not json")
        assert main(["emulate", "check", "--bank", str(bad)]) == 2
        assert "cannot load bank" in capsys.readouterr().err

    def test_wrong_schema_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bank.json"
        bad.write_text(json.dumps({"schema": "repro.emulator/v999", "surfaces": []}))
        assert main(["emulate", "check", "--bank", str(bad)]) == 2
        assert "cannot load bank" in capsys.readouterr().err


def _bank_with(**fields):
    """Edit the first surface entry of a saved bank."""

    def edit(payload):
        first = {**payload["surfaces"][0], **fields}
        return {**payload, "surfaces": [first, *payload["surfaces"][1:]]}

    return edit


RETIRED_2D = {"kind": "chebyshev2d", "quantity": "delta", "load": "poisson", "utility": "adaptive"}


class TestBankFileRefusals:
    """A bank file is outside input: every entry is checked at load, so
    a bad one is refused by name instead of crashing or being served."""

    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        yield
        obs.disable()
        obs.reset()

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda payload: [], "a bank must be a JSON object"),
            (lambda payload: {**payload, "surfaces": None}, "surfaces must be a list"),
            (lambda payload: {**payload, "surfaces": [5]}, "surface #0 (5)"),
            (_bank_with(domain=5), "surface #0 (delta/poisson/adaptive): malformed field 'domain'"),
            (_bank_with(domain=[400.0, 20.0]), "domain must be [lo, hi] with 0 < lo < hi"),
            (_bank_with(coefficients=[]), "coefficients must be a non-empty list"),
            (_bank_with(coefficients=[0.1, float("nan")]), "of finite numbers"),
            (_bank_with(certified_bound=-1), "certified_bound must be finite and > 0"),
            (
                lambda payload: {**payload, "surfaces": payload["surfaces"] + [RETIRED_2D]},
                "kbar what-ifs are answered by the exact solver",
            ),
        ],
        ids=[
            "top-level-list",
            "null-surfaces",
            "entry-not-object",
            "domain-not-pair",
            "domain-reversed",
            "empty-coefficients",
            "nan-coefficient",
            "negative-bound",
            "retired-2d-entry",
        ],
    )
    def test_refused_at_load_with_one_line(self, bank_path, tmp_path, capsys, edit, reason):
        bad = tmp_path / "bank.json"
        bad.write_text(json.dumps(edit(json.loads(bank_path.read_text()))))
        with pytest.raises(ValueError, match="surface|bank") as exc:
            SurfaceBank.load(bad)
        assert reason in str(exc.value)
        for argv in (["emulate", "check", "--bank", str(bad)], ["serve", "--bank", str(bad)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and reason in err, err


class TestBankConfig:
    """A saved bank is probed or served only under the config it was fitted for."""

    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        yield
        obs.disable()
        obs.reset()

    @pytest.mark.parametrize("command", [["emulate", "check"], ["serve"]], ids=" ".join)
    @pytest.mark.parametrize(
        "bank, flags, fitted, used",
        [
            ("fast_bank_path", [], "the fast config", "the default config"),
            ("bank_path", ["--fast-config"], "the default config", "the fast config"),
        ],
        ids=["fast-bank", "default-bank-with-fast-config"],
    )
    def test_other_configs_bank_exits_2_with_one_line(
        self, request, capsys, command, bank, flags, fitted, used
    ):
        path = request.getfixturevalue(bank)
        capsys.readouterr()  # a first fit's "bank written" line
        assert main([*command, "--bank", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert f"fitted for {fitted}, but this command uses {used}" in err
        assert "pass --fast-config exactly when" in err

    def test_unknown_config_is_named_by_digest(self, bank_path, tmp_path, capsys):
        other = tmp_path / "bank.json"
        other.write_text(
            json.dumps({**json.loads(bank_path.read_text()), "config_digest": "0123456789abcdef"})
        )
        for argv in (["emulate", "check", "--bank", str(other)], ["serve", "--bank", str(other)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "fitted for config 0123456789ab," in err, err

    def test_fast_bank_checks_under_fast_config(self, fast_bank_path, capsys):
        argv = ["emulate", "check", "--bank", str(fast_bank_path), "--fast-config"]
        assert main([*argv, "--probes", "5"]) == 0
        assert "FAIL" not in capsys.readouterr().out
