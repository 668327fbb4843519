#!/usr/bin/env python3
"""Folds sigprof.so's samples into tables.

    fold.py [-n ROWS] [--callers FN | --addrs FN] run.prof...

Every address is rebased against the mapping it fell in and symbolised with
`addr2line -a -f -i -C -e <file>` (inlined frames included, so build with
CARGO_PROFILE_RELEASE_DEBUG=true). Prints, as a share of all samples, self
and inclusive time by function and by source line. A sample counts once for
a function however many of its frames are on the stack.

Two views say what a hot line belongs to. Both take the samples whose
innermost frame's function contains FN, and print instead of the tables:

  --callers FN   the frames above FN (function and call site), so a `self`
                 row such as `core::mem::replace` names the code it is in;
  --addrs FN     the hottest instruction addresses, file-relative, ready for
                 `objdump -d --start-address=ADDR --stop-address=ADDR+64 FILE`.
"""
import argparse
import collections
import subprocess
import sys


def load(path):
    """One run's stacks, each address as (file, address within the file)."""
    maps, stacks = [], []
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "M":
            span, _perms, offset, _dev, _inode, file = rest.split(None, 5)
            lo, hi = (int(x, 16) for x in span.split("-"))
            maps.append((lo, hi, lo - int(offset, 16), file.strip()))
        elif kind == "S":
            stacks.append([int(x, 16) for x in rest.split()])
    # A position-independent file's addresses count from where its offset-0
    # mapping was loaded (this run: every run loads somewhere else).
    base = {}
    for _lo, _hi, start, file in maps:
        base[file] = min(base.get(file, start), start)

    def locate(depth, addr):
        probe = addr - (depth > 0)  # a return address belongs to the call before it
        for lo, hi, _start, file in maps:
            if lo <= probe < hi:
                return file, probe - base[file]
        return "?", probe

    return [[locate(d, a) for d, a in enumerate(stack)] for stack in stacks]


def symbolise(stacks):
    """(file, address) -> [(function, file:line)], innermost inlined frame first."""
    by_file = collections.defaultdict(set)
    for stack in stacks:
        for file, rel in stack:
            by_file[file].add(rel)
    frames = {}
    for file, rels in by_file.items():
        rels = sorted(rels)
        argv = ["addr2line", "-a", "-f", "-i", "-C", "-e", file]
        out = subprocess.run(argv + [hex(rel) for rel in rels],
                             capture_output=True, text=True).stdout.splitlines()
        index, pending = -1, None
        for line in out:
            if line.startswith("0x") and ":" not in line:
                index, pending = index + 1, None
                frames[file, rels[index]] = []
            elif pending is None:
                pending = line
            else:
                where = line.split(" (discriminator")[0].split("/")[-1]
                frames[file, rels[index]].append((pending, where))
                pending = None
    return frames


def table(title, counts, total, rows):
    print(f"\n{title}")
    for name, n in counts.most_common(rows):
        print(f"  {100 * n / total:5.1f} %  {n:6d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-n", dest="rows", type=int, default=25)
    ap.add_argument("--callers", metavar="FN")
    ap.add_argument("--addrs", metavar="FN")
    ap.add_argument("profiles", nargs="+")
    args = ap.parse_args()
    stacks = [stack for path in args.profiles for stack in load(path)]
    frames = symbolise(stacks)
    total = len(stacks)
    print(f"{total} samples from {len(args.profiles)} run(s)")
    resolved = [[f for at in stack for f in frames.get(at) or [("?", at[0].split("/")[-1])]]
                for stack in stacks]
    focus = args.callers or args.addrs
    if focus:
        mine = [(stack, res) for stack, res in zip(stacks, resolved) if focus in res[0][0]]
        if args.callers:
            chains = collections.Counter(
                "\n          <- ".join(f"{fn}  {where}" for fn, where in res[:5]) for _, res in mine)
            table(f"self in {focus}, by caller chain", chains, total, args.rows)
        else:
            addrs = collections.Counter(
                f"{hex(stack[0][1])}  {res[0][1]}  {stack[0][0].split('/')[-1]}" for stack, res in mine)
            table(f"self in {focus}, by instruction address", addrs, total, args.rows)
        return
    self_fn, self_line, incl_fn, incl_line = (collections.Counter() for _ in range(4))
    for res in resolved:
        self_fn[res[0][0]] += 1
        self_line[f"{res[0][1]}  {res[0][0]}"] += 1
        incl_fn.update({fn for fn, _ in res})
        incl_line.update({f"{where}  {fn}" for fn, where in res})
    table("self, by function", self_fn, total, args.rows)
    table("inclusive, by function", incl_fn, total, args.rows)
    table("self, by source line", self_line, total, args.rows)
    table("inclusive, by source line", incl_line, total, args.rows)


main()
