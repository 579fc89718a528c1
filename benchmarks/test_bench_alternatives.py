"""Future-work sweep: alternative distances and clustering techniques.

Section 7: "we plan to experiment with different clustering techniques on
our data sets of extracted access areas ... [and] to test our method with
different distance functions".  This benchmark runs the sweep: the
paper's distance vs. the footprint distance vs. a table-deweighted
variant, and DBSCAN vs. single-linkage, all on the same sample — scored
by planted-family recovery.
"""

from repro.clustering import SingleLinkage, partitioned_dbscan
from repro.distance import (DistanceMatrix, FootprintDistance,
                            QueryDistance, WeightedQueryDistance)
from .conftest import write_artifact


def _recovery(result, labels):
    """Families recovered as a (dominant, ≥50% pure) cluster."""
    clusters: dict[int, list[int]] = {}
    for index, label in enumerate(labels):
        if label >= 0:
            clusters.setdefault(label, []).append(index)
    recovered = set()
    for members in clusters.values():
        families = [result.sample[i].family_id for i in members]
        dominant = max(set(families), key=families.count)
        if dominant > 0 and families.count(dominant) >= 0.5 * len(families):
            recovered.add(dominant)
    return recovered, len(clusters)


def test_distance_function_sweep(benchmark, bench_result, out_dir):
    result = bench_result
    areas = [s.area for s in result.sample]
    config = result.config
    candidates = {
        "paper d_tables+d_conj": QueryDistance(
            result.stats, resolution=config.resolution),
        "footprint Jaccard": FootprintDistance(
            result.stats, resolution=config.resolution),
        "conj-weighted (w_t=0.5)": WeightedQueryDistance(
            result.stats, w_tables=0.5, resolution=config.resolution),
    }

    def sweep():
        outcomes = {}
        for name, distance in candidates.items():
            clustering = partitioned_dbscan(
                areas, distance, eps=config.eps, min_pts=config.min_pts)
            recovered, n_clusters = _recovery(result, clustering.labels)
            outcomes[name] = (len(recovered), n_clusters,
                              clustering.noise_count)
        return outcomes

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"{'distance':<26} {'recovered':>9} {'clusters':>9} "
             f"{'noise':>6}"]
    for name, (recovered, n_clusters, noise) in outcomes.items():
        lines.append(f"{name:<26} {recovered:>6}/24 {n_clusters:>9} "
                     f"{noise:>6}")
    art = "\n".join(lines)
    write_artifact(out_dir, "alternative_distances.txt", art)
    print("\n" + art)

    # Every distance recovers a solid majority; the paper's own distance
    # is the reference point and must not be dominated badly.
    for name, (recovered, _, _) in outcomes.items():
        assert recovered >= 15, (name, recovered)


def test_clustering_technique_sweep(benchmark, bench_result, out_dir):
    result = bench_result
    areas = [s.area for s in result.sample]
    config = result.config
    distance = QueryDistance(result.stats, resolution=config.resolution)

    def sweep():
        # One shared distance matrix feeds both algorithms — the
        # pairwise bill is paid once, not per technique.
        matrix = DistanceMatrix.compute(areas, distance)
        dbscan = partitioned_dbscan(areas, None, eps=config.eps,
                                    min_pts=config.min_pts, matrix=matrix)
        linkage = SingleLinkage(threshold=config.eps,
                                min_size=config.min_pts).fit(
            areas, matrix=matrix)
        return dbscan, linkage

    dbscan, linkage = benchmark.pedantic(sweep, rounds=1, iterations=1)
    db_recovered, db_n = _recovery(result, dbscan.labels)
    sl_recovered, sl_n = _recovery(result, linkage.labels)
    art = (f"DBSCAN          : {len(db_recovered)}/24 families, "
           f"{db_n} clusters, {dbscan.noise_count} noise\n"
           f"single-linkage  : {len(sl_recovered)}/24 families, "
           f"{sl_n} clusters, {linkage.noise_count} noise")
    write_artifact(out_dir, "alternative_clusterers.txt", art)
    print("\n" + art)

    assert len(sl_recovered) >= 15
    # Single linkage has no core-point requirement, so it cannot produce
    # MORE noise than DBSCAN at the same radius.
    assert linkage.noise_count <= dbscan.noise_count


def test_density_contrast_column(benchmark, bench_result, out_dir):
    """The Section 6.3 refinement: planted clusters are much denser than
    their surroundings; diffuse-noise clusters are not."""
    result = bench_result

    def collect():
        planted = [row.density_contrast for row in result.rows
                   if row.dominant_family > 0 and row.purity > 0.9
                   and row.cardinality >= 20]
        noise_rows = [row.density_contrast for row in result.rows
                      if row.dominant_family == 0]
        return planted, noise_rows

    planted, noise_rows = benchmark.pedantic(collect, rounds=1,
                                             iterations=1)
    import math
    finite_planted = [c for c in planted if math.isfinite(c)]
    art = (f"planted clusters  : {len(planted)} "
           f"(median contrast "
           f"{sorted(planted)[len(planted) // 2]:.1f})\n"
           f"noise-born rows   : {len(noise_rows)}")
    write_artifact(out_dir, "density_contrast.txt", art)
    print("\n" + art)
    assert planted
    high = sum(1 for c in planted if c > 2 or math.isinf(c))
    assert high >= 0.6 * len(planted), sorted(
        round(c, 1) for c in finite_planted)
