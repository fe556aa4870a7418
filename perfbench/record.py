"""Record the answer book (expected.json) from the one-shot CLI.

    python3 perfbench/record.py [--jobs 2]

Runs every one-shot request and campaign of the catalog and one
1536-point scalar sweep per (axis, sweep seed), and stores each
semantic answer: digests for one-shots and campaigns, the sweep rows
themselves.  The benchmark compares every later output against this
book, so re-record only when an answer is meant to change, and say so.
Any request that fails here is printed and left out of the book.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from pb import answers, build, catalog, proc  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--out", default=answers.BOOK)
    args = ap.parse_args()
    root = os.path.dirname(HERE)
    exe, = build.build(root, [build.PIPEGEN])

    reqs = catalog.one_shots() + [
        catalog.campaign(s, bmc) for s in range(catalog.CAMPAIGN_SEEDS)
        for bmc in (False, True)]
    sweeps = [catalog.sweep(axis, range(catalog.GRID), seed, False)
              for axis in catalog.AXES for seed in range(catalog.SWEEP_SEEDS)]

    def one(req):
        r = proc.run(catalog.argv(req, exe), cwd=root, timeout_s=600)
        if r.rc not in (0, 3):
            return req, None, "exit %d: %s" % (r.rc, r.err.strip()[:200])
        return req, answers.cli_answer(req, r.out, r.rc), None

    book = {"answers": {}, "sweeps": {}}
    bad = 0
    with ThreadPoolExecutor(args.jobs) as ex:
        for req, ans, err in ex.map(one, reqs + sweeps):
            if err:
                bad += 1
                print("FAILED %s: %s" % (catalog.label(req), err),
                      file=sys.stderr)
            elif req["kind"] == "sweep":
                if len(ans) != catalog.GRID:
                    sys.exit("sweep %s gave %d rows" % (catalog.label(req),
                                                        len(ans)))
                book["sweeps"][catalog.sweep_key(req["axis"], req["seed"])] \
                    = answers.pack_rows(ans)
            else:
                book["answers"][catalog.key(req)] = answers.digest(ans)
    with open(args.out, "w") as f:
        json.dump(book, f, indent=0, sort_keys=True)
        f.write("\n")
    print("recorded %d answers and %d sweep tables; %d requests failed"
          % (len(book["answers"]), len(book["sweeps"]), bad))


if __name__ == "__main__":
    main()
