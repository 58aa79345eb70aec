"""Where the tracer hooks into knapcrack, and the per-layer metrics its spans give.

Each wrapper sits on the name the caller looks up: ``pipeline`` reaches the
sweeps, the disaggregation and its own ``run_algorithm`` through its module
globals and the attacks through ``formulations``; ``formulations`` reaches
LLL, Bareiss and the exact solver through its own globals, and so on.  The
LLL kernel is reached only through ``lattice.lll``.

Every span name belongs to exactly one self-time metric, so the self times
of the layers plus the harness's own time add up to the traced wall time.
"""

from __future__ import annotations

import statistics

from spans import self_times

SELF_TIME = {
    "pipeline.attack": "pipeline.self_s",
    "pipeline.attack_with_dag": "pipeline.self_s",
    "pipeline.run_algorithm": "pipeline.self_s",
    "formulations.decompose": "formulations.decompose_self_s",
    "formulations.special_solution": "formulations.special_solution_s",
    "formulations.attack_lo": "formulations.scan_self_s",
    "formulations.attack_cjloss": "formulations.scan_self_s",
    "formulations.attack_cjloss_system": "formulations.scan_self_s",
    "formulations.attack_ahl": "formulations.scan_self_s",
    "lattice.lll": "lattice.lll_s",
    "reduction.reduce_half": "reduction.sweep_s",
    "reduction.reduce_solution": "reduction.sweep_s",
    "intmat.det_bareiss": "intmat.det_bareiss_s",
    "intmat.rank": "intmat.rank_s",
    "intmat.solve_exact": "intmat.solve_exact_s",
    "problems.system_build": "problems.system_build_s",
    "disagg.build_disaggregated": "disagg.transform_s",
    "disagg.system": "disagg.transform_s",
    "disagg.cuts_off": "disagg.transform_s",
    "analysis.compute_features": "analysis.features_s",
}


def patch_points(kc) -> list[tuple]:
    """``(owner, attribute, span name, note)`` for every wrapped call site."""
    pl, fm, dg, an, pb = kc.pipeline, kc.formulations, kc.disagg, kc.analysis, kc.problems

    def lll_cols(args, kwargs, basis):
        return args[0].n

    def n_k(args, kwargs, built):
        return built.image.n_k

    def escalations(args, kwargs, kd):
        n = args[1] if len(args) > 1 else kwargs.get("N", fm.DEFAULT_N)
        steps = 0
        while n < kd.N_used:  # decompose squares N until the zero block appears
            n = max(n * n, 2 * n)
            steps += 1
        return steps

    return [
        (pl, "attack", "pipeline.attack", None),
        (pl, "attack_with_dag", "pipeline.attack_with_dag", None),
        (pl, "run_algorithm", "pipeline.run_algorithm", None),
        (pl, "build_disaggregated", "disagg.build_disaggregated", n_k),
        (pl, "reduce_half", "reduction.reduce_half", None),
        (pl, "reduce_solution", "reduction.reduce_solution", None),
        (fm, "decompose", "formulations.decompose", escalations),
        (fm, "special_solution", "formulations.special_solution", None),
        (fm, "attack_lo", "formulations.attack_lo", None),
        (fm, "attack_cjloss", "formulations.attack_cjloss", None),
        (fm, "attack_cjloss_system", "formulations.attack_cjloss_system", None),
        (fm, "attack_ahl", "formulations.attack_ahl", None),
        (fm, "lll", "lattice.lll", lll_cols),
        (fm, "det_bareiss", "intmat.det_bareiss", None),
        (fm, "solve_exact", "intmat.solve_exact", None),
        (an, "det_bareiss", "intmat.det_bareiss", None),
        (an, "compute_features", "analysis.compute_features", None),
        (pb, "rank", "intmat.rank", None),
        (pb.LdeSystem, "from_rows", "problems.system_build", None),
        (dg, "build_disaggregated", "disagg.build_disaggregated", n_k),
        (dg, "cuts_off", "disagg.cuts_off", None),
        (dg.DisaggregatedSystem, "system", "disagg.system", None),
    ]


def _ms_p50(spans) -> float:
    return statistics.median(s.duration for s in spans) * 1000.0 if spans else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _t_steps(spans) -> list[tuple[float, bool]]:
    """(duration, skipped) of every t step inside ``attack_with_dag`` spans.

    A step runs from one disaggregation to the next (or to the end of the
    search); it was skipped when one of its calls raised.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span.parent, []).append(i)
    steps = []
    for i, search in enumerate(spans):
        if search.name != "pipeline.attack_with_dag":
            continue
        groups: list[list] = []
        for c in children.get(i, ()):
            child = spans[c]
            if child.name == "disagg.build_disaggregated":
                groups.append([child])
            elif groups:
                groups[-1].append(child)
        for k, group in enumerate(groups):
            end = groups[k + 1][0].start if k + 1 < len(groups) else search.end
            steps.append((end - group[0].start, any(s.error for s in group)))
    return steps


def layer_metrics(spans, t_found: list[int], traced_wall: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced passes: name -> (value, unit)."""
    own = dict.fromkeys(SELF_TIME.values(), 0.0)
    for span, self_s in zip(spans, self_times(spans)):
        own[SELF_TIME[span.name]] += self_s

    def named(*names):
        return [s for s in spans if s.name in names]

    sweeps = named("reduction.reduce_half", "reduction.reduce_solution")
    llls = named("lattice.lll")
    decomps = named("formulations.decompose")
    builds = [s for s in named("disagg.build_disaggregated") if s.note is not None]
    steps = _t_steps(spans)
    roots = sum(s.duration for s in spans if s.parent < 0)
    return {
        "reduction.sweep_s": (own["reduction.sweep_s"], "s"),
        "reduction.sweep_calls": (len(sweeps), "count"),
        "reduction.sweep_ms_p50": (_ms_p50(sweeps), "ms"),
        "lattice.lll_s": (own["lattice.lll_s"], "s"),
        "lattice.lll_calls": (len(llls), "count"),
        "lattice.lll_ms_p50": (_ms_p50(llls), "ms"),
        "lattice.lll_cols_mean": (_mean([s.note for s in llls]), "cols"),
        "formulations.decompose_self_s": (own["formulations.decompose_self_s"], "s"),
        "formulations.decompose_calls": (len(decomps), "count"),
        "formulations.escalations": (sum(s.note or 0 for s in decomps), "count"),
        "formulations.special_solution_s": (own["formulations.special_solution_s"], "s"),
        "formulations.scan_self_s": (own["formulations.scan_self_s"], "s"),
        "intmat.det_bareiss_s": (own["intmat.det_bareiss_s"], "s"),
        "intmat.det_bareiss_calls": (len(named("intmat.det_bareiss")), "count"),
        "intmat.rank_s": (own["intmat.rank_s"], "s"),
        "intmat.solve_exact_s": (own["intmat.solve_exact_s"], "s"),
        "problems.system_build_s": (own["problems.system_build_s"], "s"),
        "problems.system_build_calls": (len(named("problems.system_build")), "count"),
        "disagg.transform_s": (own["disagg.transform_s"], "s"),
        "disagg.n_k_mean": (_mean([s.note for s in builds]), "cols"),
        "pipeline.t_tried": (len(steps), "count"),
        "pipeline.t_skipped": (sum(skipped for _, skipped in steps), "count"),
        "pipeline.t_step_ms_p50": (statistics.median(d for d, _ in steps) * 1000.0
                                   if steps else 0.0, "ms"),
        "pipeline.rescue_ratio": (len(t_found) / len(steps) if steps else 0.0, "ratio"),
        "pipeline.t_found_mean": (_mean(t_found), "t"),
        "pipeline.self_s": (own["pipeline.self_s"], "s"),
        "analysis.features_s": (own["analysis.features_s"], "s"),
        "analysis.features_calls": (len(named("analysis.compute_features")), "count"),
        "harness.self_s": (traced_wall - roots, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (len(spans), "count"),
    }
