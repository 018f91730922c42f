#!/usr/bin/env python3
"""Check a Prometheus text exposition scraped from ddserved or ddgate.

usage: check_metrics.py METRICS_FILE [SERIES ...]

Every sample line must parse (label values may carry escaped quotes,
backslashes and newlines), every family must have exactly one # TYPE line,
and each family's samples must follow that line without another family in
between. Each SERIES, written family{label="value"}, must be present; for a
histogram family it is looked up as the family's _count sample.
"""
import re
import sys

SAMPLE = re.compile(
    r'([a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*\})?'
    r' (\S+)')


def main(path, wanted):
    kinds, samples, current = {}, set(), None
    for n, line in enumerate(open(path), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            f = line.split(" ")
            if len(f) > 1 and f[1] == "TYPE":
                assert len(f) == 4, f"line {n}: malformed TYPE line {line!r}"
                assert f[2] not in kinds, f"line {n}: second # TYPE line for {f[2]}"
                current, kinds[f[2]] = f[2], f[3]
            continue
        m = SAMPLE.fullmatch(line)
        assert m, f"line {n}: unparseable sample {line!r}"
        float(m.group(3))
        name, labels = m.group(1), m.group(2) or ""
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and kinds.get(name[:-len(suffix)]) == "histogram":
                family = name[:-len(suffix)]
        assert family == current, f"line {n}: {name} is not under its family's # TYPE line"
        samples.add(name + labels)
    for want in wanted:
        family, brace, labels = want.partition("{")
        key = want
        if kinds.get(family) == "histogram":
            key = family + "_count" + brace + labels
        assert key in samples, f"missing series {want}"
    print(f"metrics OK: {len(kinds)} families, {len(samples)} samples")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
