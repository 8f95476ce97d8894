"""Seeded input generators for the three benchmark workloads.

Everything here is a pure function of the seed.  The generators record what
they intend (each resident's profile, behavior class and secret) so the
oracle can derive expected answers without looking at program output.  This
module does not import the program.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

# Behavior-class centroids of the shipped model (fixtures/model_seed.txt).
# Routines are generated around these so the intended class is the nearest
# centroid by a wide margin.
CENTROIDS = {
    "class1": {"hold:cooking": 600.0, "hold:watching_tv": 1800.0,
               "move:kitchen->livingroom": 20.0,
               "move:livingroom->kitchen": 20.0},
    "class2": {"hold:cooking": 1200.0, "hold:watching_tv": 1800.0,
               "move:kitchen->livingroom": 60.0,
               "move:livingroom->kitchen": 60.0},
    "class3": {"hold:pacing": 300.0, "move:bedroom->livingroom": 150.0,
               "move:livingroom->bedroom": 150.0},
}

# Profile kind -> (capabilities, behavior class).  The first four are the
# fixture profiles; the last three pair a capability with a class that no
# group rule accepts, so the oracle also sees residents without a group.
PROFILES = {
    "hearing": (("hearing",), "class1"),
    "visual": (("visual",), "class2"),
    "cognitive": (("cognitive", "physical"), "class2"),
    "no": (("no",), "class1"),
    "hearing-class2": (("hearing",), "class2"),
    "visual-class1": (("visual",), "class1"),
    "cognitive-class3": (("cognitive",), "class3"),
}
SERVED_PROFILES = ("hearing", "visual", "cognitive", "no")

SERVICES = ("ReadAlert", "OpenDoor", "CallNurse", "TurnOnLight")
# The wider catalogue a facility's request history draws on.
HISTORY_SERVICES = SERVICES + ("TakeMedication", "WatchTV", "UseStove",
                               "OpenWindow", "RunShower", "CallFamily")
DEVICES = ("VisualAid", "AudioAid", "Phone", None)
ROOMS = ("kitchen", "livingroom", "bedroom", "corridor", "bathroom")
EMERGENCY_OBLIGATION = "signal-emergency"

# Request mixes as exact counts per block; each block is shuffled, so every
# seed sends the same shares.  home-day (counts per resident, four residents
# to a block of 40): 70% authorize, 20% authn, 10% query.  care-dashboard:
# 15% authn; queries 29% point, 50% profile, 21% history.
HOME_MIX = (("authorize", 7), ("authn", 2), ("query", 1))
CARE_MIX = (("authn", 6), ("point", 10), ("profile", 17), ("history", 7))
WRONG_EVERY = 20  # every 20th authn presents a wrong secret (5%)
HOME_REQUESTS = 2000
CARE_RESIDENTS = 200
CARE_REQUESTS = 160  # four mix blocks
CARE_HISTORY_REQUESTS = 3  # prior-day requests per resident
BATCH_RESIDENTS = 400
BATCH_EVENTS_PER_RESIDENT = 200


@dataclass(frozen=True)
class Resident:
    name: str
    profile: str
    capabilities: Tuple[str, ...]
    behavior_class: str
    kind: str      # password | tag
    secret: str


def _make_resident(rng: random.Random, name: str, profile: str) -> Resident:
    capabilities, behavior_class = PROFILES[profile]
    # The fixture policy's auth-mean-tag asks class2 residents with a physical
    # impairment for a tag; every other profile falls to the password default.
    physical = behavior_class == "class2" and "physical" in capabilities
    kind = "tag" if physical else "password"
    secret = f"{'tag' if kind == 'tag' else 'pw'}-{rng.getrandbits(48):012x}"
    return Resident(name, profile, capabilities, behavior_class, kind, secret)


def credential_record(resident: Resident, rng: random.Random) -> str:
    """``user:kind:record`` with passwords stored as ``salt$sha256``."""
    if resident.kind == "tag":
        return f"{resident.name}:tag:{resident.secret}"
    salt = f"{rng.getrandbits(32):08x}"
    digest = hashlib.sha256(f"{salt}:{resident.secret}".encode()).hexdigest()
    return f"{resident.name}:password:{salt}${digest}"


def features_for(rng: random.Random, behavior_class: str) -> Dict[str, float]:
    """A feature vector within 0.5% of the class centroid per key.

    The furthest such vector is under 11 s from its centroid, so trust stays
    above 0.73 at the default 30 s distance floor, while the nearest other
    centroid is at least 600 s away.
    """
    return {key: round(value * (1 + rng.uniform(-0.005, 0.005)), 3)
            for key, value in CENTROIDS[behavior_class].items()}


def _quote(text: str) -> str:
    return '"' + text + '"'


def _clock(minute: int) -> str:
    minute %= 24 * 60
    return f"{minute // 60:02d}.{minute % 60:02d}"


@dataclass(frozen=True)
class Request:
    """One wire message and what the generator meant by it.

    ``intent`` is ``("authn", wrong_secret)``, ``("authorize",)`` or
    ``("query", kind, *params)``; the oracle reads only the intent, the
    message fields and the resident table.
    """

    msg: dict
    intent: tuple


def _authn(rng: random.Random, resident: Resident, wrong: bool) -> Request:
    secret = resident.secret + "-x" if wrong else resident.secret
    msg = {"op": "authn", "user": resident.name,
           "features": features_for(rng, resident.behavior_class)}
    msg["tag" if resident.kind == "tag" else "password"] = secret
    return Request(msg, ("authn", wrong))


def _authorize(rng: random.Random, resident: Resident, minute: int) -> Request:
    msg = {"op": "authorize", "user": resident.name,
           "service": rng.choice(SERVICES),
           "context": {"time": _clock(minute),
                       "location": rng.choice(ROOMS)}}
    device = rng.choice(DEVICES)
    if device is not None:
        msg["device"] = device
    return Request(msg, ("authorize",))


def _query(kind: str, *params: str) -> Request:
    """A query of one of the fixed kinds the oracle knows how to answer."""
    text = {
        "authenticated": "SELECT ?u WHERE {{ Authenticated(?u, yes) }}",
        "capabilities": "SELECT ?c WHERE {{ HasCapability({0}, ?c) }}",
        "auth_state": "SELECT ?a WHERE {{ Authenticated({0}, ?a) }}",
        "recognized": "SELECT ?u ?c WHERE {{ HasRecognizedBehavior(?u, ?c) }}",
        "cap_authenticated": 'SELECT ?u WHERE {{ HasCapability(?u, "{0}") ^ '
                             "Authenticated(?u, yes) }}",
        "history": 'SELECT ?u WHERE {{ AskedService(?u, {0}) ^ '
                   'HasTime(?u, "{1}") }}',
    }[kind].format(*params)
    return Request({"op": "query", "q": text}, ("query", kind) + params)


@dataclass
class ServeInputs:
    """Files for ``aal-guard serve`` plus the requests to send.

    ``prime`` is sent before timing starts; ``stream`` is the measured
    request sequence.
    """

    residents: List[Resident]
    facts_text: str
    credentials_text: str
    prime: List[Request]
    stream: List[Request]
    obligations: Dict[str, Tuple[str, ...]]
    history: Dict[str, Tuple[frozenset, frozenset]]  # user -> (services, times)
    facts_loaded: int


def _balanced(rng: random.Random, profiles, count: int) -> List[str]:
    """``count`` profiles in equal shares (to one), in seeded order.

    Equal shares keep the size of every join the same from seed to seed, so
    seeds change which residents and requests, not how much work.
    """
    out = [profiles[i % len(profiles)] for i in range(count)]
    rng.shuffle(out)
    return out


def _profile_facts(residents) -> List[str]:
    return [f"HasCapability({r.name}, {_quote(cap)})."
            for r in residents for cap in r.capabilities]


def home_day(seed: int) -> ServeInputs:
    """Four residents, one per fixture profile, over a simulated day.

    Each request advances the clock by one minute, so authorize contexts keep
    adding new time facts to the live store.  Queries read only profile and
    authentication facts.
    """
    rng = random.Random(f"home-day:{seed}")
    residents = [_make_resident(rng, f"res{i + 1}", profile)
                 for i, profile in enumerate(SERVED_PROFILES)]
    obligations = {r.name: (EMERGENCY_OBLIGATION,)
                   for r in residents if "cognitive" in r.capabilities}
    lines = _profile_facts(residents)
    # The anomaly detector's standing obligation for the cognitive resident.
    lines += [f"Obligation({user}, {action})."
              for user, actions in obligations.items() for action in actions]
    credentials = [credential_record(r, rng) for r in residents]
    prime = [_authn(rng, r, wrong=False) for r in residents]

    stream = []
    minute = 7 * 60 + rng.randrange(60)
    block = [(kind, r) for r in residents
             for kind, count in HOME_MIX for _ in range(count)]
    picks, authns = _blocks(rng, block), 0
    for _ in range(HOME_REQUESTS):
        kind, resident = next(picks)
        if kind == "authorize":
            stream.append(_authorize(rng, resident, minute))
        elif kind == "authn":
            authns += 1
            stream.append(_authn(rng, resident, authns % WRONG_EVERY == 0))
        else:
            stream.append(rng.choice((
                _query("authenticated"),
                _query("capabilities", resident.name),
                _query("cap_authenticated", "cognitive"),
                _query("recognized"))))
        minute += 1
    return ServeInputs(residents, "\n".join(lines) + "\n",
                       "\n".join(credentials) + "\n", prime, stream,
                       obligations, {}, len(lines))


def care_dashboard(seed: int) -> ServeInputs:
    """200 residents with a prior day of request history, read by a dashboard.

    Every resident authenticates before timing starts.  The measured stream
    is 160 requests: 85% queries in three kinds, 15% re-authentications.
    """
    rng = random.Random(f"care-dashboard:{seed}")
    residents = [_make_resident(rng, f"c{i + 1:03d}", profile)
                 for i, profile in enumerate(_balanced(rng, SERVED_PROFILES,
                                                       CARE_RESIDENTS))]
    lines = _profile_facts(residents)
    history = {}
    seen_times = []
    for r in residents:
        services, times = set(), set()
        for _ in range(CARE_HISTORY_REQUESTS):
            service = rng.choice(HISTORY_SERVICES)
            stamp = _clock(rng.randrange(24 * 60))
            services.add(service)
            times.add(stamp)
            seen_times.append(stamp)
            lines += [f"AskedService({r.name}, {service}).",
                      f"HasTime({r.name}, {_quote(stamp)}).",
                      f"HasContext({r.name}, {_quote(stamp)})."]
        history[r.name] = (frozenset(services), frozenset(times))
    facts_loaded = len(set(lines))
    credentials = [credential_record(r, rng) for r in residents]
    prime = [_authn(rng, r, wrong=False) for r in residents]
    return ServeInputs(residents, "\n".join(lines) + "\n",
                       "\n".join(credentials) + "\n", prime,
                       _care_stream(rng, residents, sorted(set(seen_times)),
                                    CARE_REQUESTS),
                       {}, history, facts_loaded)


def _blocks(rng: random.Random, block: list) -> Iterator:
    """The items of ``block``, endlessly, reshuffled each time round."""
    block = list(block)
    while True:
        rng.shuffle(block)
        yield from block


def _care_stream(rng: random.Random, residents, times,
                 count: int) -> List[Request]:
    stream, authns = [], 0
    kinds = _blocks(rng, [kind for kind, count in CARE_MIX
                          for _ in range(count)])
    for _ in range(count):
        kind = next(kinds)
        resident = rng.choice(residents)
        if kind == "authn":
            authns += 1
            stream.append(_authn(rng, resident, authns % WRONG_EVERY == 0))
        elif kind == "point":
            stream.append(_query(rng.choice(("capabilities", "auth_state")),
                                 resident.name))
        elif kind == "profile":
            cap = rng.choice(("cognitive", "visual", "hearing"))
            stream.append(_query("cap_authenticated", cap))
        else:
            stream.append(_query("history", rng.choice(HISTORY_SERVICES),
                                 rng.choice(times)))
    return stream


@dataclass
class BatchInputs:
    residents: List[Resident]
    events_text: str
    profile_text: str
    events: int


def _routine(rng: random.Random, behavior_class: str, start: int,
             count: int) -> List[Tuple[int, str, str]]:
    """``count`` (timestamp, location, activity) rows of a daily routine.

    Every duration is the centroid value scaled by up to +/-3%, so a
    resident's feature means land close to their class centroid.
    """
    def jitter(value: float) -> int:
        return max(1, round(value * (1 + rng.uniform(-0.03, 0.03))))

    c = CENTROIDS[behavior_class]
    rows: List[Tuple[int, str, str]] = []
    t = start
    while len(rows) < count:
        if behavior_class == "class3":
            for room, other in (("bedroom", "livingroom"),
                                ("livingroom", "bedroom")):
                rows.append((t, room, "pacing"))
                t += jitter(c["hold:pacing"])
                rows.append((t, room, "pacing"))
                t += jitter(c[f"move:{room}->{other}"])
                rows.append((t, other, "none"))
                t += rng.randrange(30, 600)
        else:
            cook = jitter(c["hold:cooking"])
            rows.append((t, "kitchen", "cooking"))
            rows.append((t + cook // 2, "kitchen", "cooking"))
            t += cook
            rows.append((t, "kitchen", "cooking"))
            t += jitter(c["move:kitchen->livingroom"])
            rows.append((t, "livingroom", "none"))
            t += rng.randrange(30, 600)
            tv = jitter(c["hold:watching_tv"])
            rows.append((t, "livingroom", "watching_tv"))
            rows.append((t + tv // 2, "livingroom", "watching_tv"))
            t += tv
            rows.append((t, "livingroom", "watching_tv"))
            t += jitter(c["move:livingroom->kitchen"])
            rows.append((t, "kitchen", "none"))
            t += rng.randrange(30, 600)
    return rows[:count]


def sensor_batch(seed: int) -> BatchInputs:
    """A day of interleaved sensor events for 400 residents, ~80k rows."""
    rng = random.Random(f"sensor-batch:{seed}")
    residents = [_make_resident(rng, f"r{i + 1:04d}", profile)
                 for i, profile in enumerate(_balanced(rng, sorted(PROFILES),
                                                       BATCH_RESIDENTS))]
    rows = []
    for r in residents:
        for t, room, activity in _routine(rng, r.behavior_class,
                                          rng.randrange(3600),
                                          BATCH_EVENTS_PER_RESIDENT):
            rows.append((t, r.name, room, activity))
    rows.sort()
    events_text = "timestamp,user,location,activity\n" + "".join(
        f"{t},{user},{room},{activity}\n" for t, user, room, activity in rows)
    return BatchInputs(residents, events_text,
                       "\n".join(_profile_facts(residents)) + "\n", len(rows))
