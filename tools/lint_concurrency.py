#!/usr/bin/env python3
"""Concurrency lint for src/ (and tests/support/, whose ChaosProxy owns a
thread): keep the locking and ordering contracts honest.

Usage: lint_concurrency.py [PATH ...]   (default: src).  Each PATH is a
directory or a file inside the repository; rules keyed by file name use
paths relative to the repository root.

The engine's thread-safety story rests on two conventions the compiler
cannot fully enforce by itself:

 1. Every mutex/condvar is an annotated wrapper from
    src/util/thread_annotations.h (spmv::Mutex / spmv::CondVar /
    spmv::MutexLock), so Clang's -Wthread-safety sees every lock.  Raw
    std::mutex / std::lock_guard / std::unique_lock / std::condition_variable
    are invisible to the analysis and therefore banned outside the wrapper
    header.  Raw std::thread (and std::async, which starts a thread that
    no audited lifecycle joins) is banned outside the files that already
    own audited thread lifecycles (the worker pool, the scheduler's
    dispatcher, the pinning utility) — new parallelism goes through
    ExecutionContext or Scheduler, not ad-hoc threads.  Under src/net/,
    std::future / std::shared_future / std::promise are banned outright:
    an I/O thread must never block on one, and the scheduler's completion
    callback already hands the server every outcome.

 2. Every atomic operation states its memory order, and every
    memory_order_seq_cst (or unavoidable default-order) operation carries
    an adjacent comment arguing WHY that ordering is needed (e.g. the
    spin barrier's Dekker handshakes in core/thread_pool.cpp).  Orderings
    that were carefully argued once erode silently when later edits copy
    the call without the argument; this keeps the argument attached.

 3. In the lock-free data-structure headers (LOCKFREE_FILES) the bar is
    higher: EVERY atomic operation — relaxed and acquire/release included
    — must carry an adjacent ordering comment.  In a mutex-protected file
    a relaxed counter is usually self-evident; in a Vyukov ring or an
    eventcount the choice of relaxed-vs-acquire IS the algorithm, so an
    unargued order is indistinguishable from an unconsidered one.

Exit status 1 when any violation is found.  A line can be exempted with a
comment containing `lint:allow-concurrency` plus a justification.
"""

import re
import sys
from pathlib import Path

# Files allowed to name the raw std primitives: the annotated wrappers
# themselves.
WRAPPER_FILES = {"src/util/thread_annotations.h"}

# Files with audited std::thread lifecycles (joined, bounded, documented).
THREAD_FILES = WRAPPER_FILES | {
    "src/util/cpu.h",          # pin_thread(std::thread&) utility
    "src/util/cpu.cpp",        # hardware_concurrency probe
    "src/core/thread_pool.h",  # the worker pool owns its threads
    "src/core/thread_pool.cpp",
    "src/serve/scheduler.h",   # one dispatcher thread, joined in shutdown()
    "src/serve/scheduler.cpp",
    "src/net/server.h",        # I/O + upload threads, joined in stop()
    "src/net/server.cpp",
    # Test support: the chaos proxy's single relay thread, joined in stop().
    "tests/support/chaos_proxy.h",
    "tests/support/chaos_proxy.cpp",
}

# Lock-free algorithm files: every atomic operation (any order) must argue
# its memory_order in an adjacent comment — see module doc point 3.
LOCKFREE_FILES = {
    "src/util/mpmc_queue.h",
    "src/util/eventcount.h",
    # Fault points decide deterministically from lock-free per-point state
    # (hit counters, thresholds) on hot paths; the orders ARE the contract.
    "src/util/fault_point.h",
    "src/util/fault_point.cpp",
    # The pool's generation barrier: spin-then-park with Dekker handshakes
    # between the dispatching caller and parked workers.
    "src/core/thread_pool.h",
    "src/core/thread_pool.cpp",
    # Overload detector (packed state word CAS, EWMA CAS): sampled from the
    # submit fast path, mutated lock-free.
    "src/serve/health.h",
    "src/serve/health.cpp",
    # Per-session slots are mutated from an I/O thread while stats snapshots
    # read them from arbitrary threads; each field's order is the contract.
    "src/net/session.h",
    # The one statistics counter: its relaxed order is argued once here
    # for every counter in serve/ and net/.
    "src/util/counter.h",
}

RAW_PRIMITIVES = re.compile(
    r"std::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)
RAW_THREAD = re.compile(r"std::(thread|jthread|async)\b")
# Blocking one-shot channels: banned on the network path (see module doc).
NET_DIR = "src/net/"
FUTURE_TYPES = re.compile(r"std::(future|shared_future|promise)\b")

ATOMIC_OP = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\("
)
# ++x / x++ / x += on atomics always use seq_cst and cannot state an
# order; catch the common member spellings.  (Heuristic: only names that
# look like counters on atomic members would slip through — the explicit
# call forms above are the enforced API.)
ORDER_COMMENT = re.compile(r"seq_cst|order|Dekker|barrier|fence|handshake",
                           re.IGNORECASE)
# In lock-free files the argument is usually phrased in acquire/release
# vocabulary ("acquire: pairs with the release store of seq"), so the
# recognizer accepts the wider ordering lexicon there.
LOCKFREE_ORDER_COMMENT = re.compile(
    r"seq_cst|order|Dekker|barrier|fence|handshake|acquire|release|relaxed|"
    r"happens-before|pairs with|publish", re.IGNORECASE)
ALLOW = "lint:allow-concurrency"


def strip_comments(line: str) -> str:
    """Drop // comments (good enough: no /* */ in this tree's style)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def call_args(lines, row, col):
    """Text of a call's argument list starting at lines[row][col] == '('."""
    depth = 0
    out = []
    r, c = row, col
    while r < len(lines):
        line = strip_comments(lines[r])
        for ch in line[c:]:
            out.append(ch)
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "".join(out)
        r += 1
        c = 0
        if r - row > 6:  # a sane call fits in a handful of lines
            break
    return "".join(out)


def has_order_comment(lines, row, pattern=ORDER_COMMENT):
    """An ordering justification on the line, up to 4 above, or 2 below."""
    lo = max(0, row - 4)
    hi = min(len(lines), row + 3)
    for r in range(lo, hi):
        line = lines[r]
        idx = line.find("//")
        if idx >= 0 and pattern.search(line[idx:]):
            return True
        # Block doc-comments (///) count too via the same find above.
    return False


def lint_file(path: Path, rel: str):
    violations = []
    text = path.read_text()
    lines = text.splitlines()

    for i, raw in enumerate(lines):
        if ALLOW in raw:
            continue
        line = strip_comments(raw)

        if rel not in WRAPPER_FILES and (m := RAW_PRIMITIVES.search(line)):
            violations.append(
                (i + 1,
                 f"raw std::{m.group(1)}: use spmv::Mutex / spmv::MutexLock /"
                 " spmv::CondVar from util/thread_annotations.h so the"
                 " thread-safety analysis can see the lock"))

        if rel not in THREAD_FILES and (m := RAW_THREAD.search(line)):
            violations.append(
                (i + 1,
                 f"raw std::{m.group(1)}: dispatch through ExecutionContext"
                 " (or serve::Scheduler) instead of spawning threads — or"
                 " add this file to the audited allowlist in"
                 " tools/lint_concurrency.py with a joined, bounded thread"
                 " lifecycle"))

        if rel.startswith(NET_DIR) and (m := FUTURE_TYPES.search(line)):
            violations.append(
                (i + 1,
                 f"std::{m.group(1)} on the network path: an I/O thread must"
                 " never block on a future — take the outcome from the"
                 " scheduler's completion callback (SubmitOptions::"
                 "on_complete) instead"))

        for m in ATOMIC_OP.finditer(line):
            args = call_args(lines, i, m.end() - 1)
            op = m.group(1)
            if "memory_order" not in args:
                # Heuristic guard against non-atomic .load()/.store():
                # every atomic in this tree states its order, so a missing
                # order IS the finding.
                violations.append(
                    (i + 1,
                     f".{op}() without an explicit memory_order: default"
                     " seq_cst orderings must be spelled out (and argued in"
                     " an adjacent comment) or relaxed explicitly"))
            elif "memory_order_seq_cst" in args and not has_order_comment(
                    lines, i):
                violations.append(
                    (i + 1,
                     f".{op}(memory_order_seq_cst) without an adjacent"
                     " ordering comment: state WHY sequential consistency is"
                     " required (within 4 lines above / 2 below)"))
            elif rel in LOCKFREE_FILES and not has_order_comment(
                    lines, i, LOCKFREE_ORDER_COMMENT):
                violations.append(
                    (i + 1,
                     f".{op}() in a lock-free file without an adjacent"
                     " ordering comment: in these files the memory order IS"
                     " the algorithm — argue every one (within 4 lines"
                     " above / 2 below)"))
    return violations


REPO = Path(__file__).resolve().parent.parent


def main(argv):
    roots = [Path(a) for a in argv[1:]] or [Path("src")]
    files = sorted(
        p for root in roots
        for p in ([root] if root.is_file() else root.rglob("*"))
        if p.suffix in {".h", ".cpp", ".cc", ".hpp"})
    total = 0
    for p in files:
        rel = p.resolve().relative_to(REPO).as_posix()
        for line_no, msg in lint_file(p, rel):
            print(f"{rel}:{line_no}: {msg}")
            total += 1
    if total:
        print(f"\n{total} concurrency-lint violation(s).", file=sys.stderr)
        return 1
    print(f"concurrency lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
