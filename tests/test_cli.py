import subprocess
import sys
from pathlib import Path

import pytest

import aalguard
from aalguard import cli
from aalguard.config import ENV_VAR
from conftest import DATA_DIR

FIXTURES = Path(aalguard.__file__).parent / "fixtures"


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


def test_explain_labels_facts_loaded_as_inferred(tmp_path):
    kb = tmp_path / "held.kb"
    kb.write_text('HasCapability(u1, "hearing").\n'
                  "BehaviorCapability(u1, Group1).  # inferred rule=group1-assign\n"
                  "Obligation(u1, alert).  # inferred\n")
    outputs = [run_cli("explain", "--facts", str(kb), fact).stdout
               for fact in ('HasCapability(u1, "hearing")',
                            "BehaviorCapability(u1, Group1)",
                            "Obligation(u1, alert)")]
    assert outputs == [
        'HasCapability(u1, "hearing")  [asserted]\n',
        "BehaviorCapability(u1, Group1)  [rule group1-assign]\n",
        "Obligation(u1, alert)  [inferred]\n"]


def test_explain_of_a_fact_the_store_lacks_is_an_unquoted_error_line():
    result = run_cli("explain", "Foo(a)")
    assert (result.returncode, result.stdout, result.stderr) \
        == (1, "", "error: fact not in store: Foo(a)\n")


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


def test_query_with_a_limit_beyond_int_range_is_an_error_line():
    for limit in ("1e999", "2.5"):
        result = run_cli("query", f"SELECT ?u WHERE {{ P(?u) }} LIMIT {limit}")
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert "LIMIT must be a positive integer" in result.stderr
        assert "Traceback" not in result.stderr


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


def test_classify_without_events_is_an_error_line(tmp_path):
    config = tmp_path / "aalguard.conf"
    config.write_text("")
    result = run_cli("--config", str(config), "classify")
    assert (result.returncode, result.stdout, result.stderr) == (1, "", (
        "error: nothing to classify; pass --events or set events= "
        "in the config\n"))


INTERLEAVED_CLASSIFY = """\
u1: class=class1 distance=31.95 trust=0.48
resident 4: class=class1 distance=22.84 trust=0.57
u7: class=class3 distance=17.37 trust=0.63
u2: class=class2 distance=11.74 trust=0.72
u3: class=class2 distance=11.97 trust=0.71
u9: class=class3 distance=20.83 trust=0.59
"""


def test_event_commands_read_interleaved_residents_in_first_seen_order():
    # Six residents' rows interleaved in time, with padded cells, a quoted
    # user name and blank rows between them.
    events = str(DATA_DIR / "interleaved_events.csv")
    loaded = run_cli("load", "--events", events)
    assert (loaded.returncode, loaded.stdout) == (0, "events: 144 (6 users)\n")
    classified = run_cli("classify", "--events", events)
    assert (classified.returncode, classified.stdout) \
        == (0, INTERLEAVED_CLASSIFY)


def test_event_commands_report_a_gap_beyond_float_range_as_a_line(tmp_path):
    huge = "1" + "0" * 400
    cases = {"move.csv": f"0,u1,kitchen,none\n{huge},u1,hall,none\n",
             "run.csv": f"0,u1,kitchen,cooking\n{huge},u1,kitchen,cooking\n"}
    for name, rows in cases.items():
        path = tmp_path / name
        path.write_text("timestamp,user,location,activity\n" + rows)
        for command in ("load", "classify"):
            result = run_cli(command, "--events", str(path))
            assert (result.returncode, result.stderr) == (1, (
                "error: line 3: events for u1 span a gap beyond float range\n"))


def test_classify_reports_a_mean_beyond_float_range_as_an_error(tmp_path):
    huge = 10 ** 308
    path = tmp_path / "events.csv"
    path.write_text("timestamp,user,location,activity\n"
                    f"0,u1,k,a\n{huge},u1,h,b\n{huge},u1,k,a\n"
                    f"{2 * huge},u1,h,b\n")  # two moves k->h of 1e308
    result = run_cli("classify", "--events", str(path))
    assert (result.returncode, result.stderr) \
        == (1, "error: distance is not finite (inf)\n")


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


def test_scenario_all_matches_the_golden_report():
    # The groups lines come from the facts authentication derives.
    result = subprocess.run([sys.executable, "-m", "aalguard", "scenario", "all"],
                            capture_output=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout == (DATA_DIR / "scenario_all.txt").read_bytes()


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


def run_main(monkeypatch, capsys, *args):
    """``cli.main`` on ``args`` in process, with no config file:
    ``(exit code, stdout, stderr)``."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("address", [
    "127.0.0.1:70000", "127.0.0.1:65536", "127.0.0.1:\u00b2",
    "127.0.0.1:" + "9" * 5000], ids=["70000", "65536", "superscript-two",
                                     "5000-digits"])
def test_serve_refuses_a_listen_port_out_of_range(monkeypatch, capsys,
                                                  address):
    def no_socket(*args):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr(cli, "make_server", no_socket)
    assert run_main(monkeypatch, capsys, "serve", "--listen", address) == (
        1, "", f"bad --listen address: {address!r}\n")


@pytest.mark.parametrize("text, message", [
    ("class c1 n=1\n  hold:cooking = 60\nclass c1 n=1\n",
     "line 3: duplicate class id 'c1'"),
    ("# no classes\n", "line 1: model has no classes")],
    ids=["repeated-class", "no-class"])
@pytest.mark.parametrize("command", [
    ("classify", "--events", str(DATA_DIR / "interleaved_events.csv")),
    ("serve", "--listen", "-")], ids=["classify", "serve"])
def test_a_model_file_with_a_repeated_or_no_class_is_an_error_line(
        monkeypatch, capsys, tmp_path, text, message, command):
    model = tmp_path / "model.txt"
    model.write_text(text)
    assert run_main(monkeypatch, capsys, *command, "--model", str(model)) \
        == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("option", ["--facts", "--rules", "--events",
                                    "--model", "--credentials", "--config"])
def test_an_input_file_that_is_not_utf8_is_an_error_line(
        monkeypatch, capsys, tmp_path, option):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"HasCapability(u1, \xff).\n")
    events = str(FIXTURES / "streams" / "events_u1.csv")
    args = {"--config": (option, str(bad), "load"),
            "--model": ("classify", "--events", events, option, str(bad)),
            "--credentials": ("serve", option, str(bad))}.get(
                option, ("load", option, str(bad)))
    code, out, err = run_main(monkeypatch, capsys, *args)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "0xff" in err
    assert err.startswith(f"error: {option} {bad}: ")


def test_a_rule_id_two_rules_files_share_is_an_error_line(
        monkeypatch, capsys, tmp_path):
    # Each file's one unlabeled rule is rule1: a rationale could not tell
    # them apart, nor order their facts apart.
    first, second = tmp_path / "a.swl", tmp_path / "b.swl"
    first.write_text("HasCapability(?u, ?c) -> Seen(?u, ?c)\n")
    second.write_text("HasCapability(?u, ?c) -> Noted(?u, ?c)\n")
    assert run_main(monkeypatch, capsys, "infer",
                    "--facts", str(DATA_DIR / "behavioral.kb"),
                    "--rules", str(first), "--rules", str(second)) \
        == (1, "", f"error: --rules {second}: rule id 'rule1' "
            f"is also in {first}\n")


@pytest.mark.parametrize("name", ["a,b.swl", " lead.swl"])
def test_a_rules_flag_value_is_one_whole_path(monkeypatch, capsys, tmp_path,
                                              name):
    # A comma or a leading space is part of the file name; only --set and
    # the config file's rules= list several files, split on commas.
    (tmp_path / name).write_text(
        (DATA_DIR / "behavioral.swl").read_text(encoding="utf-8"),
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_main(monkeypatch, capsys, "load", "--rules", name) \
        == (0, "rules: 1\n", "")


@pytest.mark.parametrize("command, option, path", [
    ("classify", "--events", FIXTURES / "streams" / "events_u1.csv"),
    ("load", "--facts", DATA_DIR / "behavioral.kb"),
], ids=["events", "facts"])
def test_an_input_file_with_a_byte_order_mark_reads_as_without_one(
        monkeypatch, capsys, tmp_path, command, option, path):
    # Spreadsheets save "CSV UTF-8" with a byte-order mark in front.
    marked = tmp_path / path.name
    marked.write_text("\ufeff" + path.read_text(encoding="utf-8"),
                      encoding="utf-8")
    plain = run_main(monkeypatch, capsys, command, option, str(path))
    assert plain[0] == 0 and plain[1]
    assert run_main(monkeypatch, capsys, command, option, str(marked)) == plain


def test_a_config_file_the_environment_names_is_reported_by_its_variable(
        monkeypatch, capsys, tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_bytes(b"trust_threshold = 0.5\n\xff\n")
    monkeypatch.setenv(ENV_VAR, str(bad))
    code = cli.main(["load"])
    out, err = capsys.readouterr()
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith(f"error: {ENV_VAR} {bad}: 'utf-8' codec ")
    assert "--config" not in err


def test_a_flag_beats_set_and_set_beats_the_config_file(monkeypatch, capsys,
                                                       tmp_path):
    paths = []
    for count in (1, 2, 3):
        path = tmp_path / f"{count}.kb"
        path.write_text("".join(f"HasCapability(u{i}, no).\n"
                                for i in range(count)))
        paths.append(str(path))
    config = tmp_path / "guard.conf"
    config.write_text(f"facts={paths[0]}\n")
    options = ("--config", str(config))
    overridden = (*options, "--set", f"facts={paths[1]}")
    assert run_main(monkeypatch, capsys, *options, "load") \
        == (0, "facts: 1\n", "")
    assert run_main(monkeypatch, capsys, *overridden, "load") \
        == (0, "facts: 2\n", "")
    assert run_main(monkeypatch, capsys, *overridden, "load",
                    "--facts", paths[2]) == (0, "facts: 3\n", "")


@pytest.mark.parametrize("source", ["config", "set"])
def test_scenario_leaves_the_configured_audit_log_alone(monkeypatch, capsys,
                                                        tmp_path, source):
    # A scenario truncates its log, so it writes only where its own --audit
    # says.
    log = tmp_path / "serve.log"
    log.write_text("kept\n")
    config = tmp_path / "guard.conf"
    config.write_text(f"audit={log}\n")
    options = {"config": ("--config", str(config)),
               "set": ("--set", f"audit={log}")}[source]
    code, out, err = run_main(monkeypatch, capsys, *options, "scenario", "deaf")
    assert (code, err) == (0, "")
    assert log.read_text() == "kept\n"

