from pathlib import Path

import pytest

from aalguard import cli
from aalguard.config import Config, ConfigError, ENV_VAR, parse_config


def test_defaults_are_valid():
    config = Config().validate()
    assert config.trust_threshold == 0.5
    assert config.distance_floor == 30.0
    assert config.default_auth_mean == "username/password"
    assert config.priority_table["cognitive"] == 3


def test_parse_key_values():
    config = parse_config(
        "# paths\n"
        "facts=home.kb\n"
        "rules=a.swl, b.swl\n"
        "trust_threshold = 0.7\n"
        "priority.visual = 4\n"
        "default_auth_mean=badge\n")
    assert config.facts == "home.kb"
    assert config.rules == ["a.swl", "b.swl"]
    assert config.trust_threshold == 0.7
    assert config.priority_table["visual"] == 4
    assert config.default_auth_mean == "badge"


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config("nope=1\n")
    assert "line 1" in str(err.value)


def test_threshold_range_enforced():
    with pytest.raises(ConfigError):
        parse_config("trust_threshold=1.5\n")


def test_floor_must_be_positive():
    with pytest.raises(ConfigError):
        parse_config("distance_floor=0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_floor_must_be_finite(value):
    # NaN made every trust NaN (no anomaly could flag); inf made trust 1.0.
    with pytest.raises(ConfigError):
        parse_config(f"distance_floor={value}\n")
    with pytest.raises(ConfigError):
        Config(distance_floor=float(value)).validate()


def test_negative_priority_rejected():
    with pytest.raises(ConfigError):
        parse_config("priority.visual=-1\n")


def test_env_var_selects_config(tmp_path, monkeypatch, capsys):
    events = Path(cli.__file__).parent / "fixtures" / "streams" / "events_u1.csv"
    path = tmp_path / "guard.conf"
    path.write_text(f"events={events}\ntrust_threshold=0.25\n")
    monkeypatch.setenv(ENV_VAR, str(path))
    assert cli._settings(cli.build_parser().parse_args(
        ["classify"])).trust_threshold == 0.25
    assert cli.main(["classify"]) == 0
    assert capsys.readouterr().out.startswith("u1: class=")


def test_missing_config_file_is_error(monkeypatch, capsys):
    # An unreadable config is an I/O error, as every other input file is.
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert cli.main(["--config", "no/such/file.conf", "scenario", "deaf"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no/such/file.conf" in err
