"""Ablation: ground-truth vs inferred AS relationships for the cones.

The paper consumes CAIDA's inferred relationships; our substrate can
compare cones computed with the generator's ground truth against cones
computed with our re-implemented Luckie-style inference, quantifying
how much inference error perturbs the CCI ranking.
"""

from conftest import once

from repro.core.cone import cone_ranking
from repro.core.ndcg import ndcg
from repro.relationships.inference import infer_relationships
from repro.relationships.validation import validate_inference


def test_ablation_relationships(benchmark, paper2021, emit):
    result = paper2021
    view = result.view("international", "AU")

    def run():
        inferred = infer_relationships(result.paths.store().record_paths())
        truth_ranking = cone_ranking(view, result.world.graph, "CCI:AU(truth)")
        inferred_ranking = cone_ranking(view, inferred, "CCI:AU(inferred)")
        validation = validate_inference(inferred, result.world.graph)
        return inferred_ranking, truth_ranking, validation

    inferred_ranking, truth_ranking, validation = once(benchmark, run)
    agreement = ndcg(truth_ranking, inferred_ranking)
    emit("ablation_relationships", "\n".join([
        f"link accuracy:        {validation.accuracy:.3f}",
        f"clique precision:     {validation.clique_precision:.2f}",
        f"clique recall:        {validation.clique_recall:.2f}",
        f"CCI:AU NDCG vs truth: {agreement:.3f}",
        f"truth top-5:    {truth_ranking.top_asns(5)}",
        f"inferred top-5: {inferred_ranking.top_asns(5)}",
    ]))

    assert validation.accuracy > 0.75
    assert agreement > 0.7
