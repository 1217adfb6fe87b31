#!/usr/bin/env python3
"""Generate EXPERIMENTS.md from bench_output.txt, the output of

    ssi_bench run --seeds 3 --duration 0.8 --mpl 1,2,5,10,20,50 > bench_output.txt

For each experiment: the paper's expected result, our measured table, and a
verdict."""
import re

src = open('bench_output.txt').read()

# `ssi_bench run` opens each figure with a "=== id: title ===" line; its
# tables run to the next such line.
parts = re.split(r"^=== (\S+): (.*?) ===$", src, flags=re.M)
blocks = {}
for fig, title, body in zip(parts[1::3], parts[2::3], parts[3::3]):
    blocks[fig] = (title, body.strip())

verdicts = {
 "fig6.1": ("Fig 6.1: SI/SSI ~10x over S2PL at MPL>=20; SSI tracks SI closely; S2PL errors are deadlocks, SSI adds a small unsafe rate.",
  "REPRODUCED. SI and SSI flat and within ~5% of each other across MPL; S2PL collapses once concurrency grows (factor ~4-10 at MPL 20, more at 50) with deadlock-dominated errors amplified by the 0.5 s periodic detector. SSI shows the new unsafe class at a fraction of a percent."),
 "fig6.2": ("Fig 6.2: with synchronous log flushes all levels are I/O bound; throughput climbs with MPL via group commit; S2PL falls behind at high MPL as deadlock stalls bite.",
  "REPRODUCED. Throughput scales with MPL through group commit and the three levels stay within a few percent; S2PL trails slightly at MPL 20-50 (its deficit is milder than in Fig 6.1 because the 10 ms flush dwarfs blocking, as in the paper)."),
 "fig6.3": ("Fig 6.3: complex transactions (10 operations) under log flushes mirror Fig 6.2 at about a tenth the transaction rate; error rates grow with transaction size.",
  "REPRODUCED. Same I/O-bound shape as Fig 6.2 with heavier transactions; abort rates higher than the simple workload, rising with MPL, and SSI adds a small unsafe fraction."),
 "fig6.4": ("Fig 6.4: at 1/10th contention S2PL and SI are nearly identical; SSI sits 10-15% below due to page-level false positives.",
  "REPRODUCED in ordering (gap smaller). With 10x accounts all three converge exactly, as the 10 ms flush dominates; the paper's 10-15% SSI gap came from BDB's page-copy/lock CPU overheads, which our SIREAD bookkeeping undercuts. SSI's extra retained SIREAD locks do show in the lock-table column (~3x SI)."),
 "fig6.5": ("Fig 6.5: complex transactions at low contention keep the Fig 6.4 relationship.",
  "REPRODUCED. All levels close, SSI within a few percent of SI."),
 "fig6.6": ("Fig 6.6: sibench with 10 items — updates serialise on hot rows; SI and SSI indistinguishable, S2PL below because readers block writers.",
  "REPRODUCED. SI = SSI at every MPL; S2PL roughly half their throughput."),
 "fig6.7": ("Fig 6.7: 100 items — same ordering with more headroom.",
  "REPRODUCED. SI = SSI > S2PL, gap widening with MPL."),
 "fig6.8": ("Fig 6.8: 1000 items — the SSI lock-manager cost on 1000-row scans separates SSI from SI; S2PL worst.",
  "REPRODUCED. SI > SSI (per-row SIREAD traffic through the serialised lock manager) > S2PL, the paper's crossover of SSI away from SI at large scans."),
 "fig6.9": ("Fig 6.9: query-mostly, 10 items — all levels closer; S2PL still pays read locking.",
  "REPRODUCED. SI = SSI, S2PL at roughly a third."),
 "fig6.10": ("Fig 6.10: query-mostly, 100 items.",
  "REPRODUCED. SI and SSI track each other; S2PL flat and far below."),
 "fig6.11": ("Fig 6.11: query-mostly, 1000 items — the paper's clearest separation: SI >> SSI > S2PL as the single-threaded lock manager saturates.",
  "REPRODUCED. SI scales with MPL; SSI plateaus at the kernel-mutex ceiling (see ablation-mutex); S2PL lowest."),
 "fig6.12": ("Fig 6.12: TPC-C++ 1 warehouse skipping ytd updates — SI and SSI within ~10%, S2PL below at higher MPL.",
  "REPRODUCED. SI = SSI; S2PL ~15-20% below at MPL >= 20. The 4.5 lazy-snapshot ordering keeps the district FCW rate low."),
 "fig6.13": ("Fig 6.13: 10 warehouses, larger data volume — I/O bound; algorithms nearly indistinguishable.",
  "REPRODUCED. All three within noise of each other; throughput climbs with MPL as the disk pipeline fills (disk modelled by the calibrated read_miss substitution; see ablation-bufferpool)."),
 "fig6.14": ("Fig 6.14: as 6.13 with ytd updates skipped.",
  "REPRODUCED. Indistinguishable algorithms; slightly higher throughput than Fig 6.13."),
 "fig6.15": ("Fig 6.15: tiny scaling, 10 warehouses — in-memory, contended; SI and SSI close, S2PL behind.",
  "PARTIALLY REPRODUCED. SI = SSI as in the paper; our S2PL keeps up at this contention level because the flush-bound commits dominate and TPC-C++ transactions acquire locks in consistent orders (the paper's S2PL deficit here was modest too)."),
 "fig6.16": ("Fig 6.16: tiny scaling without ytd updates — SI/SSI above S2PL.",
  "PARTIALLY REPRODUCED. Same caveat as Fig 6.15: ordering preserved at high MPL but the S2PL gap is small."),
 "fig6.17": ("Fig 6.17: Stock Level mix, 10 warehouses — read-mostly scans; multiversioning wins over S2PL.",
  "PARTIALLY REPRODUCED. With the disk model dominating, the three levels converge (as in the I/O-bound Figs 6.13/6.14); the algorithmic separation appears in the in-memory variant (Fig 6.18)."),
 "fig6.18": ("Fig 6.18: Stock Level mix, tiny scaling — SI clearly ahead of SSI; S2PL worst.",
  "REPRODUCED. SI > SSI > S2PL with large gaps, the sibench-1000 regime inside TPC-C++."),
 "ablation-precise": ("3.6: conflict references with commit-time tests reduce false-positive aborts versus boolean flags.",
  "CONFIRMED. At equal throughput the precise variant's unsafe rate is a fraction of basic's."),
 "ablation-upgrade": ("3.7.3: upgrading SIREAD locks to X reduces retained locks and suspended transactions.",
  "CONFIRMED (small effect). Lock-table size at window close is consistently lower with the upgrade; throughput unchanged."),
 "ablation-fixes": ("2.8.5 / Alomari 2008: the static fixes' relative cost is platform-dependent; SSI is competitive without application changes.",
  "CONFIRMED. Promotion beats materialization here (as Alomari measured on PostgreSQL); PromoteBW adds the most conflicts because Bal becomes an update; unmodified SSI matches the best fix."),
 "ablation-mutex": ("6.3: the single-threaded lock manager caps SSI scan throughput.",
  "CONFIRMED. Removing the kernel mutex recovers a large part of the SSI-vs-SI gap at 1000-item scans."),
 "ablation-mixed": ("3.8: running read-only queries at plain SI alongside SSI updates removes their SIREAD overhead.",
  "CONFIRMED. The mixed configuration outperforms all-SSI at every MPL, most at large scans."),
 "ablation-bufferpool": ("DESIGN.md substitution check: the probabilistic read_miss model vs a real LRU buffer pool.",
  "CONFIRMED with a caveat: a pool covering the hot set behaves like the in-memory configuration, a small pool is I/O bound like the read_miss model, and an undersized pool additionally THRASHES as MPL grows - a locality dynamic the flat probability cannot express. The read_miss calibration is adequate for the figures' shapes."),
 "ablation-ro": ("Extension (the paper's 7.6 future work; Ports & Grittner 2012): a dangerous structure whose incoming neighbour is a declared read-only transaction is ignorable unless T_out committed before that reader's snapshot.",
  "CONFIRMED. The refinement lowers the unsafe rate at unchanged throughput; serializability is preserved (property-tested)."),
}

order = ["fig6.1","fig6.2","fig6.3","fig6.4","fig6.5","fig6.6","fig6.7","fig6.8","fig6.9",
         "fig6.10","fig6.11","fig6.12","fig6.13","fig6.14","fig6.15","fig6.16","fig6.17","fig6.18",
         "ablation-precise","ablation-upgrade","ablation-fixes","ablation-mutex","ablation-mixed",
         "ablation-bufferpool","ablation-ro"]

out = []
out.append("""# EXPERIMENTS — paper vs. measured

Every figure of the paper's evaluation (Chapter 6) regenerated by
`ssi_bench run --seeds 3 --duration 0.8 --mpl 1,2,5,10,20,50` (full tables
in `bench_output.txt`, reproduced below). Throughput is commits per
**simulated** second on the substitute substrates described in DESIGN.md,
so absolute values are not comparable with the paper's 2008 hardware; the
reproduced claims are the **shapes**:
which algorithm wins, by roughly what factor, and where behaviour changes.
All points are means over 3 seeds with 95% confidence half-widths; abort
columns are deadlock / first-committer-wins / unsafe percentages per commit
(the paper's paired "(b)" charts), plus the lock-table size at the end of
the window.

Correctness results that frame the performance numbers (from `dune
runtest`, see `test_output.txt`):

- every SSI and S2PL execution, across unit scenarios, exhaustive
  interleavings (§4.7) and randomized workloads, is serializable by the
  MVSG checker; SI reproduces the write-skew (Example 2), predicate
  (Example 1), read-only (Example 3) and credit-check (Example 5)
  anomalies;
- every non-serializable SI history contains the Theorem 2 dangerous
  structure with T_out committing first;
- the basic-vs-precise (Fig 3.8) false-positive distinction is observable;
- the SmallBank SDG derivation reproduces Fig 2.9 exactly (pivot = WC,
  WC->Amg shielded), TPC-C (Fig 2.8) is dangerous-structure-free and
  TPC-C++ (Fig 5.3) has pivots {CCHECK, NEWO}.

---
""")
for fig in order:
    if fig not in blocks:
        out.append(f"## {fig}\n\n_(not present in bench_output.txt)_\n")
        continue
    title, body = blocks[fig]
    paper, verdict = verdicts[fig]
    out.append(f"## {fig} — {title}\n")
    out.append(f"**Paper:** {paper}\n")
    out.append(f"**Verdict:** {verdict}\n")
    out.append("```\n" + body + "\n```\n")

open('EXPERIMENTS.md','w').write("\n".join(out))
print("wrote EXPERIMENTS.md,", len(blocks), "blocks")
