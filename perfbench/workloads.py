"""The four workloads: inputs drawn from the seed, the calls made into
hskolem, and the checks on every output.

Each workload is a list of calls that makes up one pass; the benchmark
repeats the pass.  The seed draws the inputs but keeps the work per pass
nearly fixed, so that runs with different seeds can be compared:

* count: the heavy instances are fixed and the seed draws the light ones
  (an nK2/hooked pair at n = 9, n = 8 instances, a 9-vertex tree) and the
  call order.  Every pass holds the cross-engine identities.
* decide: every point of the grid once per pass in each mode, in grid
  order as a sweep over the grid makes them; the seed draws the enumerate
  limits and the survey rows.
* construct: orders come in pairs n, S - n around the band centre, so the
  pairs constructed per pass stay fixed while each n is drawn.
* cli: a fixed mix of subcommands per pass; the seed draws their arguments.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

WORK_DIR = Path(".bench_build") / "perfbench"

# A call's `check` returns (problem or None, value); the values of one pass
# go to the workload's pass check, which tests identities between calls.


@dataclass
class Call:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    span: str = "bench"


@dataclass
class Workload:
    calls: list[Call]
    # Values of one pass -> (index of the failing call, problem) per broken identity.
    pass_check: Callable[[list], list[tuple[int, str]]] = lambda values: []
    pairs_per_pass: int = 0


def _seq_entries(h, sol) -> list:
    return [None if x is h.core.HOOK else x for x in sol.entries]


def _hook_index(key) -> int | None:
    return None if key[0] == "skolem" else 2 * key[-1] - 1


def _seq_search(h, key, mode, limit=None):
    if key[0] == "skolem":
        return lambda: h.search.search_skolem(key[1], mode, limit)
    if key[0] == "hooked_skolem":
        return lambda: h.search.search_hooked_skolem(key[1], mode, limit)
    return lambda: h.search.search_hooked_sequence(key[1], key[2], mode, limit)


def _solution_problem(h, sol, spec, hook_index=None, graph=None, kd=None):
    """Independent certificate plus the library's own verifier."""
    if graph is not None:
        p, edges = graph
        problem = ref.labeling_problem(p, edges, list(sol.labels), *kd)
        ok = h.verify.verify_labeling(h.core.Graph(p, edges), sol, *kd).valid
    elif hook_index is None and kd is not None:
        problem = ref.pairs_problem(sol.pairs, *spec)
        ok = h.verify.verify_pair_system(sol, *kd).valid
    else:
        problem = ref.sequence_problem(_seq_entries(h, sol), hook_index, *spec)
        ok = h.verify.verify_sequence(sol).valid
    if problem is None and not ok:
        problem = "verify_* rejects a solution the reference accepts"
    return problem


def _check_search(h, want_count, mode, limit, spec, hook_index=None, graph=None, kd=None):
    def check(out):
        if out.exists != (want_count > 0):
            return f"exists={out.exists}, reference count {want_count}", None
        if mode == "count":
            return (None if out.count == want_count else f"count {out.count} != {want_count}"), out.count
        if mode == "exists":
            return None, out.exists
        want = min(want_count, 1 if mode == "first" else limit)
        if len(out.solutions) != want or len(set(out.solutions)) != want:
            return f"{len(out.solutions)} solutions, expected {want} distinct", None
        for sol in out.solutions:
            problem = _solution_problem(h, sol, spec, hook_index, graph, kd)
            if problem:
                return problem, None
        return None, want

    return check


# ---------------------------------------------------------------------------
# count: serial exhaustive counts, no early stop
# ---------------------------------------------------------------------------

TREES = ("path9", "spider3x2", "caterpillar9", "binary9", "broom9", "spider3-2-2")


def _count_nk2(h, n, k, d) -> Call:
    want = ref.nk2_count(n, k, d)
    return Call(f"search_nk2({n},{k},{d},count)",
                lambda: h.search.search_nk2(n, k, d, "count"),
                _check_search(h, want, "count", None, None))


def _count_seq(h, key) -> Call:
    return Call(f"{key} count", _seq_search(h, key, "count"),
                _check_search(h, ref.seq_count(key), "count", None, None))


def _count_graph(h, name, k, d) -> Call:
    g = h.core.Graph(*ref.GRAPHS[name])
    return Call(f"search_graph({name},{k},{d},count)",
                lambda: h.search.search_graph(g, k, d, "count"),
                _check_search(h, ref.GRAPH_COUNTS[(name, k, d)], "count", None, None))


def count_workload(h, rng, root: Path) -> Workload:
    k7, k8, k9 = rng.randint(1, 4), rng.randint(2, 4), rng.randint(1, 4)
    twin9 = ("hooked_skolem", 9) if k9 == 1 else ("hooked", k9, 9)
    # Seven calls expand at most 8k nodes, seven at least 29k, and the path
    # (2,1) search between them about 9k at a higher cost per node, so the
    # median and p90 of the call latencies fall inside fixed instances.
    calls = [
        _count_nk2(h, 10, 2, 1), _count_seq(h, ("hooked", 2, 10)),
        _count_graph(h, "5K2", 2, 1), _count_nk2(h, 5, 2, 1),
        _count_nk2(h, 9, k9, 1), _count_seq(h, twin9),
        _count_nk2(h, 8, k8, 1), _count_seq(h, ("hooked", k8, 8)),
        _count_seq(h, ("skolem", 8)), _count_seq(h, ("skolem", 9)),
        _count_seq(h, ("hooked_skolem", 8)), _count_seq(h, ("skolem", rng.randint(6, 7))),
        _count_nk2(h, 7, k7, 1), _count_graph(h, "path9", 2, 1),
        _count_graph(h, rng.choice(TREES), 1, 1),
    ]
    # (call, call, factor): count(a) == count(b) * factor.  nK2 (n,k,1) is the
    # hooked sequence (k, n); 5K2 labelings are pair systems times 2^5 * 5!.
    identities = [(0, 1, 1), (4, 5, 1), (6, 7, 1), (2, 3, 2 ** 5 * 120)]
    order = list(range(len(calls)))
    rng.shuffle(order)
    where = {c: i for i, c in enumerate(order)}

    def pass_check(values):
        problems = []
        for a, b, factor in identities:
            va, vb = values[where[a]], values[where[b]]
            if va is None or vb is None or va != vb * factor:
                problems.append((where[a], f"{calls[a].label} = {factor} x {calls[b].label} fails"))
        return problems

    return Workload([calls[i] for i in order], pass_check)


# ---------------------------------------------------------------------------
# decide: short exists / first / enumerate calls and survey rows
# ---------------------------------------------------------------------------

def _survey(h, n_max, k, d, up_to) -> Call:
    def check(rows):
        if [r.n for r in rows] != list(range(1, n_max + 1)):
            return "survey rows do not cover 1..n_max", None
        for r in rows:
            if r.parity_feasible != ref.parity_feasible(r.n, k, d):
                return f"n={r.n}: parity column disagrees with the reference", None
            want = (ref.nk2_count(r.n, k, d) > 0) if r.n <= up_to else None
            if r.exists != want or (r.exists and not r.parity_feasible):
                return f"n={r.n}: search column {r.exists}, expected {want}", None
        return None, None

    return Call(f"survey_nk2(1..{n_max},{k},{d},up_to={up_to})",
                lambda: h.search.survey_nk2(range(1, n_max + 1), k, d, search_up_to=up_to),
                check)


def decide_workload(h, rng, root: Path) -> Workload:
    """Every grid point in each mode, with the seed drawing the enumerate
    limit, so the costs per pass do not depend on which mode was drawn.
    The calls keep grid order: a shuffled order puts a different engine
    before each call, and the median call (about 15 us) then varied by 30%
    between runs with the machine's cache state."""
    calls = []
    for mode in ("exists", "first", "enumerate"):
        for n, k, d in ref.NK2_DOMAIN:
            limit = rng.randint(2, 5) if mode == "enumerate" else None
            calls.append(Call(
                f"search_nk2({n},{k},{d},{mode},{limit})",
                lambda n=n, k=k, d=d, mode=mode, limit=limit: h.search.search_nk2(n, k, d, mode, limit),
                _check_search(h, ref.nk2_count(n, k, d), mode, limit, ref.nk2_spec(n, k, d), kd=(k, d))))
        for key in ref.SEQ_DOMAIN:
            limit = rng.randint(2, 5) if mode == "enumerate" else None
            calls.append(Call(
                f"{key} {mode} {limit}", _seq_search(h, key, mode, limit),
                _check_search(h, ref.seq_count(key), mode, limit, ref.seq_spec(key), _hook_index(key))))
    for k in range(1, 5):
        calls.append(_survey(h, rng.randint(10, 14), k, 1, 10))
        n_max = rng.randint(6, 14)
        calls.append(_survey(h, n_max, rng.randint(1, 4), rng.randint(2, 4), min(n_max, 10)))
    return Workload(calls)


# ---------------------------------------------------------------------------
# construct: closed-form labelings written, read back, converted, certified
# ---------------------------------------------------------------------------

BAND = (6000, 12000)
PAIRS_PER_PASS = 6


def _construct_item(h, n: int, damaged: bool) -> Call:
    positions, diffs = ref.hooked_positions(n), list(range(2, n + 2))
    hooked = h.core.SequenceKind.HOOKED

    def run():
        ps = h.construct.construct_nk2_21(n)
        js = h.core.pair_system_to_json(ps, 2, 1)
        text = h.core.format_pairs(ps)
        from_js = h.core.pair_system_from_json(js)
        from_text = h.core.parse_pairs(text)
        seq = h.core.pairs_to_sequence(from_text, hooked, d=2)
        out = [ps, from_js, from_text, seq, h.verify.verify_sequence(seq)]
        if damaged:
            # Swap the larger labels of the first two pairs, as a damaged file would.
            tokens = text.split(" ", 2)
            (a1, b1), (a2, b2) = (t.split("-") for t in tokens[:2])
            bad = h.core.parse_pairs(f"{a1}-{b2} {a2}-{b1} {tokens[2]}")
            bad_seq = h.core.pairs_to_sequence(bad, hooked, d=2)
            out += [bad, h.verify.verify_sequence(bad_seq)]
        return out

    def check(out):
        ps, (from_js, k, d), from_text, seq, report = out[:5]
        problem = ref.pairs_problem(ps.pairs, positions, diffs)
        if problem:
            return problem, None
        if from_js != ps or (k, d) != (2, 1) or from_text != ps:
            return "JSON or a-b text does not read back to the same labeling", None
        problem = ref.sequence_problem(_seq_entries(h, seq), 2 * n - 1, positions, diffs)
        if problem or not report.valid:
            return problem or "verify_sequence rejects a valid hooked sequence", None
        if damaged:
            bad, bad_report = out[5:]
            valid = ref.pairs_problem(bad.pairs, positions, diffs) is None
            if bad_report.valid != valid:
                return f"verify_sequence says valid={bad_report.valid} on damaged input", None
        return None, n

    return Call(f"construct n={n}{' +damaged' if damaged else ''}", run, check)


def construct_orders(rng) -> list[int]:
    """Orders n = 1 or 2 (mod 4) in BAND, in pairs n, S - n with S fixed per
    family, so every pass constructs the same number of pairs.  Pair i draws
    n from the i-th slice of the lower half of the band, so the orders spread
    evenly over it."""
    orders = []
    step = (BAND[1] - BAND[0]) // (2 * PAIRS_PER_PASS)
    for i in range(PAIRS_PER_PASS):
        family = 1 + i % 2
        n = rng.randrange(BAND[0] + i * step, BAND[0] + (i + 1) * step)
        n += (family - n) % 4
        total = BAND[0] + BAND[1] + (2 if family == 1 else 4)
        orders += [n, total - n]
    return orders


def construct_workload(h, rng, root: Path) -> Workload:
    # The three largest orders also verify a damaged copy.  Choosing by rank
    # keeps the cost profile of a pass the same for every seed, and the three
    # costliest items then cost about the same, so call_p90_ms falls inside
    # them rather than on the step below one much costlier item.
    orders = sorted(construct_orders(rng))
    items = [(n, rank >= len(orders) - 3) for rank, n in enumerate(orders)]
    rng.shuffle(items)
    return Workload([_construct_item(h, n, damaged) for n, damaged in items],
                    pairs_per_pass=sum(n for n, _ in items))


# ---------------------------------------------------------------------------
# cli: one client, fresh `python -m hskolem.cli` per call (closed loop)
# ---------------------------------------------------------------------------

def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(root: Path, argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "hskolem.cli", *argv], cwd=root,
                          env=cli_env(root), capture_output=True, text=True, timeout=120)


def _cli_check(want_code: int, check_stdout):
    def check(proc):
        if proc.returncode != want_code:
            return f"exit {proc.returncode}, expected {want_code}: {proc.stderr[-200:]}", None
        if "Traceback" in proc.stderr:
            return "traceback on stderr", None
        return check_stdout(proc.stdout.rstrip()), None

    return check


def _pairs_from_text(text: str) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in tok.split("-")) for tok in text.split()]


def _sequence_text(pairs, m: int) -> str:
    """Hooked sequence of a pair system, written independently of core."""
    entries = ["*"] * (2 * m + 1)
    for a, b in pairs:
        entries[a - 1] = entries[b - 1] = str(b - a)
    return " ".join(entries)


def _sequence_from_text(text: str) -> list:
    return [None if tok == "*" else int(tok) for tok in text.split()]


def _first_checker(kind: str, key, graph=None, kd=None):
    """Check a `--mode first` line with the independent certifiers."""
    def check(line):
        if kind == "nk2":
            return ref.pairs_problem(_pairs_from_text(line), *ref.nk2_spec(*key))
        if kind == "graph":
            return ref.labeling_problem(*graph, [int(x) for x in line.split()], *kd)
        return ref.sequence_problem(_sequence_from_text(line), _hook_index(key), *ref.seq_spec(key))

    return check


def _cli_search(root, rng, work, jobs: int) -> Call:
    kind = rng.choice(("nk2", "sequence", "graph") if jobs == 1 else ("nk2", "sequence"))
    mode = "count" if jobs > 1 else rng.choice(("exists", "count", "first"))
    graph = kd = None
    if kind == "nk2":
        n, k, d = rng.randint(4, 7), rng.randint(1, 3), rng.randint(1, 2)
        key, want = (n, k, d), ref.nk2_count(n, k, d)
        argv = ["search", "nk2", "--n", str(n), "--k", str(k), "--d", str(d)]
    elif kind == "sequence":
        m = rng.randint(4, 7)
        key = rng.choice([("skolem", m), ("hooked_skolem", m), ("hooked", rng.randint(2, 3), m)])
        want = ref.seq_count(key)
        argv = ["search", "sequence", "--kind", key[0].replace("_", "-"), "--m", str(m)]
        if key[0] == "hooked":
            argv += ["--d", str(key[1])]
    else:
        name, k, d = rng.choice([g for g in ref.GRAPH_COUNTS if ref.GRAPHS[g[0]][0] <= 6])
        key, want, graph, kd = name, ref.GRAPH_COUNTS[(name, k, d)], ref.GRAPHS[name], (k, d)
        argv = ["search", "graph", "--edges", str(work / f"{name}.edges"), "--k", str(k), "--d", str(d)]
    argv += ["--mode", mode, "--jobs", str(jobs)]
    if mode == "count":
        expect = lambda out: None if out == str(want) else f"count {out!r} != {want}"
    elif mode == "exists":
        expect = lambda out: None if out == ("true" if want else "false") else f"exists {out!r}, count {want}"
    else:
        first = _first_checker(kind, key, graph, kd)
        expect = lambda out: first(out) if want else (None if out == "none" else f"{out!r} != none")
    span = "cli.search" if jobs == 1 else "cli.search_jobs2"
    return Call(" ".join(argv), lambda: run_cli(root, argv), _cli_check(0, expect), span)


def _cli_survey(root, rng) -> Call:
    n_max, k, d = rng.randint(6, 10), rng.randint(1, 4), rng.randint(1, 4)
    up_to = rng.randint(4, 7)
    argv = ["survey", "nk2", "--n-max", str(n_max), "--k", str(k), "--d", str(d),
            "--search-up-to", str(up_to)]
    rows = [f"{'n':>4}  {'parity':<8}  search"]
    for n in range(1, n_max + 1):
        found = "-" if n > up_to else ("true" if ref.nk2_count(n, k, d) else "false")
        rows.append(f"{n:>4}  {'yes' if ref.parity_feasible(n, k, d) else 'no':<8}  {found}")
    want = "\n".join(rows)
    return Call(" ".join(argv), lambda: run_cli(root, argv),
                _cli_check(0, lambda out: None if out == want else "survey table differs"),
                "cli.survey")


def _cli_construct(root, rng, valid: bool) -> Call:
    n = rng.choice([n for n in range(1, 61) if (n % 4 in (1, 2)) == valid])
    fmt = rng.choice(("text", "json"))
    argv = ["construct", "nk2", "--n", str(n), "--format", fmt]
    if not valid:
        return Call(" ".join(argv), lambda: run_cli(root, argv),
                    _cli_check(2, lambda out: None if out == "" else "stdout not empty"),
                    "cli.construct")

    def expect(out):
        pairs = json.loads(out)["pairs"] if fmt == "json" else _pairs_from_text(out)
        return ref.pairs_problem(pairs, *ref.nk2_spec(n, 2, 1))

    return Call(" ".join(argv), lambda: run_cli(root, argv), _cli_check(0, expect), "cli.construct")


def cli_workload(h, rng, root: Path) -> Workload:
    """20 calls per pass: construct 4 (one order with no labeling, exit 2),
    verify 6 (two damaged inputs, exit 1), convert 2, search 6 (two with
    --jobs 2) and survey 2."""
    work = root / WORK_DIR
    for name, (p, edges) in ref.GRAPHS.items():
        (work / f"{name}.edges").write_text(f"p {p}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    calls = [_cli_construct(root, rng, True) for _ in range(3)] + [_cli_construct(root, rng, False)]

    labelings = []
    for i in range(3):
        n = rng.choice([n for n in range(5, 200) if n % 4 in (1, 2)])
        pairs = [list(p) for p in h.construct.construct_nk2_21(n).pairs]
        if i == 2:
            pairs[0][1], pairs[1][1] = pairs[1][1], pairs[0][1]
        path = work / f"labeling{i}.json"
        path.write_text(json.dumps({"n": n, "k": 2, "d": 1, "pairs": pairs}))
        valid = ref.pairs_problem(pairs, *ref.nk2_spec(n, 2, 1)) is None
        labelings.append((path, pairs, n))
        argv = ["verify", "labeling", "--file", str(path)]
        calls.append(Call(" ".join(argv), lambda argv=argv: run_cli(root, argv),
                          _cli_check(0 if valid else 1,
                                     lambda out, valid=valid: None if (out == "VALID") == valid
                                     else f"verdict {out[:40]!r}"), "cli.verify"))

    keys = [key for key in ref.SEQ_DOMAIN if 4 <= key[-1] <= 7 and ref.seq_count(key)]
    for i in range(3):
        key = rng.choice(keys)
        sols = _seq_search(h, key, "enumerate", 50)().solutions
        entries = _seq_entries(h, rng.choice(sols))
        if i == 2:
            entries = entries[1:] + entries[:1]
        valid = ref.sequence_problem(entries, _hook_index(key), *ref.seq_spec(key)) is None
        text = " ".join("*" if x is None else str(x) for x in entries)
        argv = ["verify", "sequence", "--kind", key[0].replace("_", "-"), "--seq", text]
        if key[0] == "hooked":
            argv += ["--d", str(key[1])]
        calls.append(Call(" ".join(argv[:4]), lambda argv=argv: run_cli(root, argv),
                          _cli_check(0 if valid else 1,
                                     lambda out, valid=valid: None if (out == "VALID") == valid
                                     else f"verdict {out[:40]!r}"), "cli.verify"))

    path, pairs, n = labelings[0]
    seq_text = _sequence_text(pairs, n)
    pair_text = " ".join(f"{a}-{b}" for a, b in sorted(pairs, key=lambda p: p[1] - p[0]))
    for argv, want in (
        (["convert", "--from", "pairs", "--to", "sequence", "--kind", "hooked", "--d", "2",
          "--in", str(path)], seq_text),
        (["convert", "--from", "sequence", "--to", "pairs", "--kind", "hooked", "--d", "2",
          "--in", seq_text], pair_text),
    ):
        calls.append(Call(" ".join(argv[:5]), lambda argv=argv: run_cli(root, argv),
                          _cli_check(0, lambda out, want=want: None if out == want else "converted text differs"),
                          "cli.convert"))

    calls += [_cli_search(root, rng, work, 1) for _ in range(4)]
    calls += [_cli_search(root, rng, work, 2) for _ in range(2)]
    calls += [_cli_survey(root, rng) for _ in range(2)]
    rng.shuffle(calls)
    return Workload(calls)


WORKLOADS = {
    "count": count_workload,
    "decide": decide_workload,
    "construct": construct_workload,
    "cli": cli_workload,
}
