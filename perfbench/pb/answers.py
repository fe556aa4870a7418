"""Semantic answers of pipegen operations and the recorded answer book.

An answer keeps the fields a user acts on and drops presentation:
verdicts and obligation statuses for verify, the cycle decomposition
for stats, class counts for campaigns, the integer columns of sweep
rows, and the emitted text itself for proof, show and verilog (that
text is the deliverable).  The same extraction runs on a one-shot CLI
output and on a serve payload, so a serve answer is compared with the
CLI's answer to the same request.
"""

import base64
import hashlib
import json
import os
import re
import zlib

from pb import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
BOOK = os.path.join(os.path.dirname(HERE), "expected.json")

STATS_FIELDS = ("cycles", "retired", "retiring_cycles", "multi_retire_extra",
                "cpi", "lost")
CLASSES = ("detected", "masked", "missed", "timed out", "aborted")


def digest(answer):
    blob = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _line(lines, prefix):
    return next((l for l in lines if l.startswith(prefix)), None)


def verify_answer(text, rc):
    lines = text.splitlines()
    return {"rc": rc,
            "consistency": _line(lines, "data consistency:"),
            "liveness": _line(lines, "liveness:"),
            "obligations": re.findall(r"^\s*\[(\S+)\]\s+(\S+)", text, re.M),
            "verdict": lines[-1] if lines else None}


def stats_answer(hazards):
    return {k: hazards.get(k) for k in STATS_FIELDS}


def campaign_answer(report, rc):
    counts = {c: 0 for c in CLASSES}
    for r in report["results"]:
        counts[r["class"]] = counts.get(r["class"], 0) + 1
    return {"rc": rc, "counts": counts}


def sweep_rows(text):
    """Integer columns of the sweep table: instr, cycles, stalls, dhaz,
    ext, rollbacks, squash."""
    rows = []
    for line in text.splitlines()[1:]:
        f = line.split()
        if len(f) == 10:
            rows.append([int(f[i]) for i in (1, 2, 5, 6, 7, 8, 9)])
    return rows


def cli_answer(req, out, rc):
    """The answer of a one-shot CLI run (stdout and exit code)."""
    kind = req["kind"]
    if kind == "verify":
        return verify_answer(out, rc)
    if kind == "stats":
        return {"rc": rc, "hazards": stats_answer(json.loads(out))}
    if kind == "campaign":
        return campaign_answer(json.loads(out), rc)
    if kind == "sweep":
        return sweep_rows(out)
    return {"rc": rc, "text": hashlib.sha256(out.encode()).hexdigest()}


def serve_answer(req, resp):
    """The answer carried by a successful serve response, in the form
    cli_answer gives for the same request."""
    kind = req["kind"]
    if kind == "verify":
        rc = 0 if resp["verdict"]["verified"] else 3
        return verify_answer(resp["text"], rc)
    if kind == "stats":
        return {"rc": 0, "hazards": stats_answer(resp["hazards"])}
    if kind == "sweep":
        return sweep_rows(resp["text"])
    if kind == "verilog":
        text = resp.get("verilog", "")
    elif kind == "show":
        text = resp["summary"] + resp["inventory"]
    else:
        text = resp["text"]
    return {"rc": 0, "text": hashlib.sha256(text.encode()).hexdigest()}


def pack_rows(rows):
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return base64.b64encode(zlib.compress(blob, 9)).decode()


def unpack_rows(packed):
    return json.loads(zlib.decompress(base64.b64decode(packed)))


class Book:
    """Answers recorded from the one-shot CLI at the commit that
    defined the benchmark (see record.py)."""

    def __init__(self, path=BOOK):
        with open(path) as f:
            data = json.load(f)
        self.answers = data["answers"]
        self.sweeps = {k: unpack_rows(v) for k, v in data["sweeps"].items()}

    def expected(self, key):
        return self.answers.get(key)

    def expected_rows(self, req):
        table = self.sweeps[catalog.sweep_key(req["axis"], req["seed"])]
        return [table[i] for i in req["grid"]]

    def check(self, req, answer):
        """None when the answer matches the book, else a one-line
        description of the mismatch."""
        if req["kind"] == "sweep":
            want = self.expected_rows(req)
            if answer == want:
                return None
            bad = [i for i, (a, b) in enumerate(zip(answer, want)) if a != b]
            return ("%d of %d rows differ (first at point %d); %d rows "
                    "returned" % (len(bad), len(want),
                                  bad[0] if bad else -1, len(answer)))
        want = self.expected(catalog.key(req))
        if want is None:
            return "no recorded answer"
        got = digest(answer)
        return None if got == want else "answer %s, recorded %s" % (got, want)
