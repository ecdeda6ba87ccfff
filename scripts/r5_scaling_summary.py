"""Summarize round-5 scaling runs (SCALING_r05_run*.json).

Prints one row per run plus the same-code medians for the primary
(300k sub-saturation) and attached (1M saturated) criterion rows —
the numbers BASELINE_HISTORY.md's round-5 table reports.  Pure file
reading; no Ray.  The scripts that produced these files (the quiet-window
launcher, leg and pair samplers, grind loops) are retired; the committed
JSON is the frozen record.
"""
import glob
import json
import os
import re
import statistics
import sys


def main() -> None:
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    runs = []
    for path in glob.glob(os.path.join(repo, "SCALING_r05_run*.json")):
        m = re.search(r"run(\d+)\.json$", path)
        if not m:
            continue
        with open(path) as f:
            d = json.load(f)
        runs.append((int(m.group(1)), d))
    if not runs:
        print("no SCALING_r05_run*.json found", file=sys.stderr)
        raise SystemExit(1)
    runs.sort()
    subsat = [d["efficiency_subsat"] for _, d in runs]
    sat = [d["efficiency_saturated"] for _, d in runs]
    print(f"{'run':>4} {'subsat(PRIMARY)':>16} {'saturated':>10} "
          f"{'300k 16cpu f/s':>15} {'1M 16cpu f/s':>13} {'code':>12}")
    for n, d in runs:
        s300 = d["sizes"].get("300000", {})
        s1m = d["sizes"].get("1000000", {})
        # runs before the bench stamped code versions are docterms v3
        # (every r5 run runs post-docterms-v3 code; the stamp landed
        # with v4)
        code = d.get("code", {})
        code_s = (f"dt v{code.get('docterms_format', 3)}"
                  f"+b{code.get('build_code_revision', 0)}")
        print(f"{n:>4} {d['efficiency_subsat']:>16.3f} "
              f"{d['efficiency_saturated']:>10.3f} "
              f"{s300.get('build_16cpu_files_per_sec', float('nan')):>15,.0f} "
              f"{s1m.get('build_16cpu_files_per_sec', float('nan')):>13,.0f} "
              f"{code_s:>12}")
    print(f"\nruns: {len(runs)}")
    print(f"median subsat (PRIMARY): {statistics.median(subsat):.3f}")
    print(f"median saturated:        {statistics.median(sat):.3f}")
    print(f"min/max subsat: {min(subsat):.3f} / {max(subsat):.3f}")
    # Launch-gated cohort: run 5 onward is started only after two
    # consecutive quiet >=6 GB/s Ray-free probes (the retired quiet-window
    # launcher; BASELINE_HISTORY.md round-5 protocol note).  Runs 1-4 predate the gate and
    # sample whatever weather the session had (runs 3-4: a multi-hour
    # storm), so the gated-cohort median is the protocol's headline once
    # the cohort is populated.
    gated = [(n, d) for n, d in runs if n >= 5]
    if gated:
        gs = [d["efficiency_subsat"] for _, d in gated]
        gt = [d["efficiency_saturated"] for _, d in gated]
        print(f"launch-gated runs (>=5): {len(gated)} -> "
              f"median subsat {statistics.median(gs):.3f}, "
              f"median saturated {statistics.median(gt):.3f}")
    # pooled best legs across same-code runs: co-tenant weather only ever
    # SLOWS a leg, so the max over runs approximates the code's true
    # throughput at each parallelism; their ratio is the pooled
    # efficiency estimator (r4 judge: "pooled best-qualified legs")
    for size in ("300000", "1000000"):
        legs = {}
        for _, d in runs:
            s = d["sizes"].get(size)
            if not s:
                continue
            for cpus in (4, 16):
                key = f"build_{cpus}cpu_files_per_sec"
                legs.setdefault(cpus, []).append(s[key])
        if len(legs) == 2:
            b4, b16 = max(legs[4]), max(legs[16])
            print(f"pooled best legs {size}: 4cpu {b4:,.0f} f/s, "
                  f"16cpu {b16:,.0f} f/s -> efficiency "
                  f"{(b16 / b4) / 4:.3f}")
    stage_split(runs)


def stage_split(runs: list) -> None:
    """Per-stage efficiency of the pooled BEST rep per leg, for runs
    whose reps carry ``stage_seconds`` (recorded per rep from run 5 on;
    earlier runs only snapshot each leg's LAST rep at the run level,
    which mis-attributes one poisoned rep's weather to the whole leg).
    This is the criterion statement's CPU-bound-vs-copy-bound split:
    tokenize is the compute term, exchange the shared-bus copy term."""
    for size in ("300000", "1000000"):
        best = {}
        for _, d in runs:
            s = d["sizes"].get(size)
            if not s:
                continue
            for cpus in (4, 16):
                for rep in s["reps"][str(cpus)]:
                    if not rep.get("stage_seconds"):
                        continue
                    cur = best.get(cpus)
                    if cur is None or rep["files_per_sec"] > cur[0]:
                        best[cpus] = (rep["files_per_sec"],
                                      rep["stage_seconds"])
        if len(best) < 2:
            continue
        parts = []
        for st in best[4][1]:
            t4, t16 = best[4][1][st], best[16][1].get(st)
            if not t16:
                continue
            parts.append(f"{st} {(t4 / t16) / 4:.2f} "
                         f"({t4:.0f}s->{t16:.0f}s)")
        print(f"best-rep stage efficiencies {size}: " + ", ".join(parts))


def legs_summary() -> None:
    """Pool SCALING_r05_legs.jsonl (opportunistic single-leg samples from
    the retired leg sampler) per (code revision, n_docs, cpus): count,
    best and median files/sec of the QUALIFIED samples (the
    ``window_ok`` each sample recorded: bracketing probes above the gate
    threshold and a clean in-leg sampler), falling back to all samples
    when none qualify, then the pooled best-leg efficiency."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(repo, "SCALING_r05_legs.jsonl")
    if not os.path.exists(path):
        print("no SCALING_r05_legs.jsonl", file=sys.stderr)
        return
    legs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                legs.append(json.loads(line))
    by_cohort: dict = {}
    for r in legs:
        code = r.get("code", {})
        cohort = (f"dt v{code.get('docterms_format', '?')}"
                  f"+b{code.get('build_code_revision', 0)}")
        key = (cohort, r.get("n_docs_target", r.get("n_docs")))
        by_cohort.setdefault(key, {}).setdefault(
            r["num_cpus"], []).append(r)
    print(f"{len(legs)} leg samples")
    for (cohort, n_docs), per_cpu in sorted(by_cohort.items()):
        stats = {}
        for cpus, rs in sorted(per_cpu.items()):
            qual = [r for r in rs if r.get("window_ok")] or rs
            fps = [r["files_per_sec"] for r in qual]
            stats[cpus] = (max(fps), statistics.median(fps))
            print(f"  {cohort} {n_docs} docs {cpus}cpu: "
                  f"{len(rs)} samples ({len(qual)} pooled"
                  f"{' qualified' if qual is not rs else ' (none qualified)'}"
                  f") best {max(fps):,.0f} f/s median "
                  f"{statistics.median(fps):,.0f}")
        if len(stats) == 2:
            cs = sorted(stats)
            ratio = cs[1] / cs[0]
            print(f"  {cohort} {n_docs} docs pooled efficiency: best "
                  f"{(stats[cs[1]][0] / stats[cs[0]][0]) / ratio:.3f}, "
                  f"median {(stats[cs[1]][1] / stats[cs[0]][1]) / ratio:.3f}")




def pairs_summary() -> None:
    """SCALING_r05_pairs.jsonl (same-window pairs from the retired pair
    sampler):
    per-pair rows, then the pooled best-leg efficiency over ALL round-5
    leg samples (single-leg grind + pair legs) per code cohort."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ppath = os.path.join(repo, "SCALING_r05_pairs.jsonl")
    pairs = []
    if os.path.exists(ppath):
        with open(ppath) as f:
            pairs = [json.loads(l) for l in f if l.strip()]
    for r in pairs:
        code = r.get("code", {})
        print(f"pair eff {r['pair_efficiency']:.3f}  "
              f"4cpu {r['lo']['files_per_sec']:,.0f} "
              f"16cpu {r['hi']['files_per_sec']:,.0f}  "
              f"probes {r['pre_gbps']}/{r['mid_gbps']}/{r['post_gbps']}  "
              f"ok {r['window_ok']}  "
              f"dt v{code.get('docterms_format','?')}"
              f"+b{code.get('build_code_revision',0)}")
    # pooled best legs across every source
    lpath = os.path.join(repo, "SCALING_r05_legs.jsonl")
    legs = []
    if os.path.exists(lpath):
        with open(lpath) as f:
            legs = [json.loads(l) for l in f if l.strip()]
    best: dict = {}
    for r in legs:
        best.setdefault(r["num_cpus"], 0.0)
        best[r["num_cpus"]] = max(best[r["num_cpus"]], r["files_per_sec"])
    for r in pairs:
        for key, cpus in (("lo", 4), ("hi", 16)):
            best.setdefault(cpus, 0.0)
            best[cpus] = max(best[cpus], r[key]["files_per_sec"])
    if len(best) == 2:
        cs = sorted(best)
        eff = (best[cs[1]] / best[cs[0]]) / (cs[1] / cs[0])
        print(f"ALL-SOURCE pooled best legs: {cs[0]}cpu {best[cs[0]]:,.0f} "
              f"{cs[1]}cpu {best[cs[1]]:,.0f} -> efficiency {eff:.3f}")


if __name__ == "__main__":
    if "--pairs" in sys.argv:
        pairs_summary()
        raise SystemExit(0)
    if "--legs" in sys.argv:
        legs_summary()
    else:
        main()
