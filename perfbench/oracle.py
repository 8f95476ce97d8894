"""Independent oracle: expected answers from what the generator intended.

The oracle encodes the shipped policy (``fixtures/rules``) by hand and tracks
the state the request sequence implies: who is authenticated, with which
behavior class.  It never reads program output to decide what is right.
Rationale strings are not checked: the cross-user match in ``alzheimer-deny``
changes only the rationale, never the effect.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .gen import Request, Resident

PASSWORD_MEAN = "username/password"
TAG_MEAN = "tag-mean"
PRIORITY = {"cognitive": 3, "visual": 2, "hearing": 2, "physical": 1, "no": 0}


def auth_mean(resident: Resident) -> str:
    """The mean the generator issued this resident a credential for."""
    return TAG_MEAN if resident.kind == "tag" else PASSWORD_MEAN


def groups(capabilities, behavior_class: str) -> List[str]:
    """The ``group1-assign`` .. ``group3-assign`` rules."""
    out = []
    if behavior_class == "class1" and "hearing" in capabilities:
        out.append("Group1")
    if behavior_class == "class2" and "visual" in capabilities:
        out.append("Group2")
    if behavior_class == "class2" and "cognitive" in capabilities:
        out.append("Group3")
    return out


def _rows(*columns: str, values) -> List[dict]:
    return [dict(zip(columns, row)) for row in values]


def _row_key(row: dict) -> tuple:
    return tuple(sorted(row.items()))


class ServeOracle:
    """Replays a request sequence and says what each answer must be."""

    def __init__(self, residents: List[Resident],
                 obligations: Dict[str, tuple],
                 history: Dict[str, tuple]):
        self.residents = {r.name: r for r in residents}
        self.obligations = obligations
        self.history = history
        self.authenticated: Dict[str, str] = {}   # user -> yes | no
        self.recognized: Dict[str, str] = {}      # user -> class

    def expect(self, request: Request) -> dict:
        """Expected response fields for ``request``; advances the state."""
        kind = request.intent[0]
        msg = request.msg
        if kind == "authn":
            resident = self.residents[msg["user"]]
            answer = "no" if request.intent[1] else "yes"
            self.authenticated[resident.name] = answer
            self.recognized[resident.name] = resident.behavior_class
            return {"ok": True, "authenticated": answer,
                    "mean": auth_mean(resident),
                    "class": resident.behavior_class}
        if kind == "authorize":
            return self._authorize(msg)
        return {"ok": True, "rows": self._query(request.intent[1],
                                                *request.intent[2:])}

    def _authorize(self, msg: dict) -> dict:
        resident = self.residents[msg["user"]]
        priority = max(PRIORITY.get(c, 0) for c in resident.capabilities)
        if self.authenticated.get(resident.name) != "yes":
            return {"ok": True, "effect": "deny", "obligations": [],
                    "recommendations": [], "priority": priority}
        member = groups(resident.capabilities,
                        self.recognized[resident.name])
        service, device = msg["service"], msg.get("device")
        permit = service == "ReadAlert" and (
            ("Group1" in member and device == "VisualAid")
            or ("Group2" in member and device == "AudioAid"))
        recommendations = []
        if service == "ReadAlert":  # recommended whether or not permitted
            if "Group1" in member:
                recommendations.append("visual-alert")
            if "Group2" in member:
                recommendations.append("audible-alert")
        return {"ok": True, "effect": "permit" if permit else "deny",
                "obligations": sorted(self.obligations.get(resident.name, ())),
                "recommendations": sorted(recommendations),
                "priority": priority}

    def _query(self, kind: str, *params: str) -> List[dict]:
        yes = sorted(u for u, a in self.authenticated.items() if a == "yes")
        if kind == "authenticated":
            return _rows("u", values=[(u,) for u in yes])
        if kind == "capabilities":
            return _rows("c", values=[(c,) for c in
                                      self.residents[params[0]].capabilities])
        if kind == "auth_state":
            state = self.authenticated.get(params[0])
            return _rows("a", values=[(state,)] if state else [])
        if kind == "recognized":
            return _rows("u", "c", values=sorted(self.recognized.items()))
        if kind == "cap_authenticated":
            return _rows("u", values=[(u,) for u in yes if params[0] in
                                      self.residents[u].capabilities])
        if kind == "history":
            service, stamp = params
            return _rows("u", values=[
                (u,) for u, (services, times) in sorted(self.history.items())
                if service in services and stamp in times])
        raise ValueError(f"unknown query kind {kind!r}")


def check(expected: dict, response: dict) -> Optional[str]:
    """None when ``response`` carries every expected field, else why not.

    Lists compare as multisets: obligations and recommendations in any
    order, query rows in any order but with no row missing or extra.
    """
    if not isinstance(response, dict):
        return f"not a JSON object: {response!r}"
    for key, want in expected.items():
        got = response.get(key)
        if key == "rows" and isinstance(got, list):
            if sorted(map(_row_key, got)) != sorted(map(_row_key, want)):
                return f"rows: expected {want}, got {got}"
        elif isinstance(want, list) and isinstance(got, list):
            if sorted(got) != sorted(want):
                return f"{key}: expected {want}, got {got}"
        elif got != want:
            return f"{key}: expected {want!r}, got {got!r}"
    return None


def expected_batch(residents: List[Resident]) -> dict:
    """Each resident's class and the members of each group, by intent."""
    members: Dict[str, List[str]] = {"Group1": [], "Group2": [], "Group3": []}
    for r in residents:
        for group in groups(r.capabilities, r.behavior_class):
            members[group].append(r.name)
    return {"classes": {r.name: r.behavior_class for r in residents},
            "groups": {g: sorted(users) for g, users in members.items()},
            "conflicts": 0}


def check_batch(expected: dict, result: dict) -> List[str]:
    """One line per resident whose class is wrong, per wrong group, per conflict."""
    problems = []
    classes = result.get("classes", {})
    for user, want in expected["classes"].items():
        if classes.get(user) != want:
            problems.append(f"{user}: class {classes.get(user)!r}, expected {want}")
    for extra in sorted(set(classes) - set(expected["classes"])):
        problems.append(f"{extra}: classified but not in the input")
    for group, want in expected["groups"].items():
        got = result.get("groups", {}).get(group)
        if got is None or sorted(got) != want:
            problems.append(f"{group}: members {got}, expected {want}")
    if result.get("conflicts") != expected["conflicts"]:
        problems.append(f"conflicts: {result.get('conflicts')}, expected 0")
    return problems
