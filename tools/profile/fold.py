#!/usr/bin/env python3
"""Folds sigprof.so's samples into tables: fold.py [-n ROWS] run.prof...

Every address is rebased against the mapping it fell in and symbolised with
`addr2line -a -f -i -C -e <file>` (inlined frames included, so build with
CARGO_PROFILE_RELEASE_DEBUG=true). Prints, as a share of all samples, self
and inclusive time by function and by source line. A sample counts once for
a function however many of its frames are on the stack.
"""
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
    args, rows = sys.argv[1:], 25
    if args[:1] == ["-n"]:
        rows, args = int(args[1]), args[2:]
    stacks = [stack for path in args for stack in load(path)]
    frames = symbolise(stacks)
    self_fn, self_line, incl_fn, incl_line = (collections.Counter() for _ in range(4))
    for stack in stacks:
        resolved = [f for at in stack for f in frames.get(at) or [("?", at[0].split("/")[-1])]]
        self_fn[resolved[0][0]] += 1
        self_line[f"{resolved[0][1]}  {resolved[0][0]}"] += 1
        incl_fn.update({fn for fn, _ in resolved})
        incl_line.update({f"{where}  {fn}" for fn, where in resolved})
    print(f"{len(stacks)} samples from {len(args)} run(s)")
    table("self, by function", self_fn, len(stacks), rows)
    table("inclusive, by function", incl_fn, len(stacks), rows)
    table("self, by source line", self_line, len(stacks), rows)
    table("inclusive, by source line", incl_line, len(stacks), rows)


main()
