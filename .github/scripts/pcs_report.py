#!/usr/bin/env python3
"""Exact instruction counts per function and source line, from the
per-PC histogram `istep --pcs FILE` writes:

    istep --pcs pcs.txt target/release/ftnoc fuzz --repro "w=4,h=4,cycles=30"
    .github/scripts/pcs_report.py pcs.txt [TOP]

One batched `addr2line -a -i -f -C` call maps every program counter of
the executable to its chain of inlined frames. `self` charges a count to
the innermost frame (function and line), `inclusive` to every distinct
function on the chain. Line tables make it exact per line: build with
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only; without them only
function symbols resolve and inlined code counts to its caller.
Counts outside the executable (the dynamic loader, libc) are summed as
one line.
"""
import collections
import subprocess
import sys


def main():
    path = sys.argv[1]
    top = int(sys.argv[2]) if len(sys.argv) > 2 else 30
    base, exe, hits = None, None, collections.Counter()
    for line in open(path):
        if line.startswith("# base "):
            _, _, addr, exe = line.split(maxsplit=3)
            base, exe = int(addr, 16), exe.strip()
            continue
        pc, n = line.split()
        hits[int(pc, 16)] += int(n)
    total = sum(hits.values())
    own = {pc - base: n for pc, n in hits.items() if 0 <= pc - base < 1 << 32}
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", exe] + [hex(pc) for pc in own],
        capture_output=True, text=True, check=True).stdout.splitlines()
    chains, pc = {}, None
    for line in out:
        if line.startswith("0x"):
            pc = int(line, 16)
            chains[pc] = []
        else:
            chains[pc].append(line)
    self_fn, self_line, incl = (collections.Counter() for _ in range(3))
    for pc, n in own.items():
        frames = chains.get(pc) or ["??", "??:0"]
        fns, locs = frames[0::2], frames[1::2]
        self_fn[fns[0]] += n
        self_line[locs[0].split(" ")[0]] += n
        for fn in set(fns):
            incl[fn] += n
    print(f"{total} instructions, {total - sum(own.values())} outside {exe}")
    for title, table in [("inclusive", incl), ("self by function", self_fn), ("self by line", self_line)]:
        print(f"--- {title}")
        for key, n in table.most_common(top):
            print(f"{100 * n / total:6.2f} % {n:>10} {key[:120]}")


if __name__ == "__main__":
    main()
