import subprocess
import sys

from conftest import DATA_DIR


def run_cli(*args, input_text=None):
    return subprocess.run(
        [sys.executable, "-m", "aalguard", *args],
        capture_output=True, text=True, input=input_text, timeout=60)


def test_load_reports_counts():
    result = run_cli("load", "--facts", str(DATA_DIR / "behavioral.kb"),
                     "--rules", str(DATA_DIR / "behavioral.swl"))
    assert result.returncode == 0
    assert "facts: 3" in result.stdout
    assert "rules: 1" in result.stdout


def test_infer_prints_one_derived_fact():
    result = run_cli("infer", "--facts", str(DATA_DIR / "behavioral.kb"),
                     "--rules", str(DATA_DIR / "behavioral.swl"))
    assert result.returncode == 0
    assert "+ HasRecognizedBehavior(u1, class1)  [behavior-class1]" in result.stdout
    assert "derived 1 fact(s)" in result.stdout


def test_explain_shows_rule_and_premises():
    result = run_cli("explain", "--facts", str(DATA_DIR / "behavioral.kb"),
                     "--rules", str(DATA_DIR / "behavioral.swl"),
                     "HasRecognizedBehavior(u1, class1)")
    assert result.returncode == 0
    assert "[rule behavior-class1]" in result.stdout
    assert result.stdout.count("[asserted]") == 3


def test_query_empty_store_exits_zero():
    result = run_cli("query", "SELECT ?u WHERE { Authenticated(?u, yes) }")
    assert result.returncode == 0
    assert "0 row(s)" in result.stdout


def test_query_finds_derived_facts():
    result = run_cli("query", "--facts", str(DATA_DIR / "behavioral.kb"),
                     "--rules", str(DATA_DIR / "behavioral.swl"),
                     "SELECT ?u WHERE { HasRecognizedBehavior(?u, class1) }")
    assert result.returncode == 0
    assert "?u=u1" in result.stdout
    assert "1 row(s)" in result.stdout


def test_missing_file_exits_two():
    result = run_cli("infer", "--facts", "no/such/file.kb")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_parse_error_exits_one(tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("HasCapability(u1\n")
    result = run_cli("load", "--facts", str(bad))
    assert result.returncode == 1
    assert "line 1" in result.stderr


def test_classify_reports_fixture_users():
    import aalguard

    events = str((DATA_DIR / ".." / ".." / "src" / "aalguard" / "fixtures"
                  / "scenarios" / "deaf" / "events.csv").resolve())
    result = run_cli("classify", "--events", events)
    assert result.returncode == 0
    assert "u1: class=class1" in result.stdout
    assert "trust=1.00" in result.stdout


def test_scenario_commands_pass():
    for name in ("deaf", "blind", "alzheimer"):
        result = run_cli("scenario", name)
        assert result.returncode == 0, result.stdout + result.stderr
        assert f"scenario {name}: PASS" in result.stdout


def test_scenario_all_pass_and_deterministic():
    first = run_cli("scenario", "all")
    second = run_cli("scenario", "all")
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_unknown_scenario_is_usage_error():
    result = run_cli("scenario", "nonsense")
    assert result.returncode == 2


def test_set_overrides_the_trust_threshold():
    # Trust 0.23: below the default threshold of 0.5, above 0.2.
    message = ('{"op": "authn", "user": "u1", "password": "door-chime-7", '
               '"features": {"hold:cooking": 700, "hold:watching_tv": 1800, '
               '"move:kitchen->livingroom": 20, "move:livingroom->kitchen": 20}}\n')
    serve = ("serve", "--listen", "-", "--prime-scenarios")
    default = run_cli(*serve, input_text=message)
    lowered = run_cli("--set", "trust_threshold=0.2", *serve, input_text=message)
    assert default.returncode == lowered.returncode == 0
    assert '"authenticated": "no"' in default.stdout
    assert "below threshold 0.5" in default.stdout
    assert '"authenticated": "yes"' in lowered.stdout


def test_set_with_a_non_numeric_threshold_exits_one():
    result = run_cli("--set", "trust_threshold=high", "scenario", "deaf")
    assert result.returncode == 1
    assert "error" in result.stderr
    assert "scenario" not in result.stdout
