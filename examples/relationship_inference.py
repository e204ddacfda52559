#!/usr/bin/env python3
"""Validate the Luckie-style relationship inference against ground truth.

The paper consumes CAIDA's inferred AS relationships; this repository
re-implements the inference (transit degrees → clique → peak-and-witness
link labelling) and — because the simulated world knows every true
relationship — can measure exactly how well it does, and how much the
inference error perturbs the cone rankings.

    python examples/relationship_inference.py
"""

from repro import generate_world, run_pipeline, PipelineConfig
from repro.core.cone import cone_ranking
from repro.core.ndcg import ndcg
from repro.net.aspath import ASPath
from repro.relationships import (
    infer_relationships,
    transit_degrees,
    validate_inference,
)


def main() -> None:
    world = generate_world(seed=42, name="default")
    result = run_pipeline(world, PipelineConfig())
    paths = list(result.paths.store().record_paths())

    degrees = transit_degrees([ASPath(p.asns) for p in paths])
    top = sorted(degrees.items(), key=lambda kv: -kv[1])[:8]
    print("highest transit degrees:")
    for asn, degree in top:
        print(f"  AS{asn:<7} {result.as_name(asn):<22} {degree}")

    inferred = infer_relationships(paths)
    validation = validate_inference(inferred, world.graph)
    print(f"\nlabelled links:     {validation.total_links}")
    print(f"accuracy:           {validation.accuracy:.3f}")
    print(f"p2p called p2c:     {validation.p2p_as_p2c}")
    print(f"p2c called p2p:     {validation.p2c_as_p2p}")
    print(f"flipped direction:  {validation.flipped_p2c}")
    print(f"clique precision:   {validation.clique_precision:.2f}")
    print(f"clique recall:      {validation.clique_recall:.2f}")
    print("inferred clique:   ", sorted(
        f"{result.as_name(asn)}" for asn in inferred.clique
    ))

    # How much does the inference error move a country ranking?
    view = result.view("international", "AU")
    truth = cone_ranking(view, world.graph, "CCI:AU(truth)")
    approx = cone_ranking(view, inferred, "CCI:AU(inferred)")
    print(f"\nCCI:AU agreement (NDCG@10) with ground truth: "
          f"{ndcg(truth, approx):.3f}")
    print("truth    top-5:", [result.as_name(a) for a in truth.top_asns(5)])
    print("inferred top-5:", [result.as_name(a) for a in approx.top_asns(5)])


if __name__ == "__main__":
    main()
