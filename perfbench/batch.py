"""The sensor-batch pipeline, run in its own process.

    python -m perfbench.batch EVENTS_CSV PROFILE_KB [TRACE_FILE]

Set-up (imports, reading the inputs, parsing the fixture rules and model)
ends with a ``ready`` line on stdout.  A ``go`` line on stdin then starts one
batch in the order the ``classify`` and ``infer`` commands use: load events;
extract features, classify and score trust per resident; assert profile and
behavior facts; run the fixpoint; check consistency; read the groups back
through the query layer.  The result is one JSON line on stdout.  Any other
line ends the process after set-up.
"""

import json
import sys
import time


def main(argv) -> int:
    events_path, profile_path = argv[0], argv[1]
    trace_path = argv[2] if len(argv) > 2 else None
    tracer = None
    if trace_path:
        from perfbench.spans import ATTRS, Tracer, install
        tracer = Tracer()
        install(tracer)
    from aalguard import behavior, engine, facts, query, scenarios
    from aalguard.config import Config

    with open(events_path, encoding="utf-8") as fh:
        events_text = fh.read()
    with open(profile_path, encoding="utf-8") as fh:
        profile_text = fh.read()
    config = Config()
    rules = scenarios.load_fixture_rules()
    model = scenarios.load_fixture_model(config.distance_floor)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    root = tracer.open("batch.run") if tracer else None
    start = time.perf_counter()
    events = behavior.load_events(events_text)
    classes, resident_ms = {}, []
    for user in behavior.users_in(events):
        t0 = time.perf_counter()
        features = behavior.extract_features(events, user)
        class_id, _ = behavior.classify(model, features)
        behavior.trust_score(model, class_id, features)
        t1 = time.perf_counter()
        resident_ms.append((t1 - t0) * 1e3)
        classes[user] = class_id
    store = facts.load_facts(profile_text)
    sizes = []
    tenth = max(1, len(classes) // 10)
    for i, (user, class_id) in enumerate(classes.items()):
        if i % tenth == 0 and len(sizes) < 10:
            sizes.append(len(store))
        store.assert_fact(facts.ground("HasRecognizedBehavior", user, class_id))
    engine.infer_fixpoint(store, rules)
    conflicts = engine.check_consistency(store)
    sizes.append(len(store))
    groups = {}
    for group in ("Group1", "Group2", "Group3"):
        parsed = query.parse_query(
            f"SELECT ?u WHERE {{ BehaviorCapability(?u, {group}) }}")
        groups[group] = [row["u"].text() for row in query.eval_query(store, parsed)]
    end = time.perf_counter()
    if tracer:
        root[ATTRS].update(residents=len(classes), events=len(events),
                           store_sizes=sizes)
        tracer.close(root)
        tracer.dump(trace_path)

    print(json.dumps({
        "classes": classes, "groups": groups, "conflicts": len(conflicts),
        "events": len(events), "batch_s": end - start,
        "resident_ms": resident_ms}),
        flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
