"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in the library) initializes or shuts down Ray.

``entry()`` runs the flagship rollup pipeline on sf0.001.  ``queries()``
exposes every implemented operator/pipeline from SURVEY.md §2 (plus the
training-data-pipeline operators) as callables over an ``sf_dir``;
``oracle_sql()`` gives the DuckDB-equivalent SQL for each SQL-expressible
one.  Core-engine queries run over the deterministic synthesized sequences
table (the BASELINE.json input_hint shape); the SQL side reads the identical
parquet bytes via read_parquet.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: sequences -> gap-fill ->
    DWT round-trip verify -> tier rollups -> per-(source, tier) aggregates.
    Returns the (small) aggregate Dataset."""
    from wavelet_decomposition_ray import synth
    from wavelet_decomposition_ray.pipelines import rollup_pipeline as rp

    seq = synth.ensure_sequences("/root/testdata/sf0.001")
    rolled = rp.rollup_dataset(rp.sequences_dataset(seq), bank="haar",
                               n_tiers=10, verify=True, batch_size=128)
    return rp.source_tier_aggregate(rolled)


# The external gate checks the FIRST 50 registry entries: lead with a
# representative mix of both families (core engine + data pipeline) so the
# driver re-verifies dedup/ANN/text/join queries every round instead of only
# the core block (VERDICT r3 #1).  Everything else follows in definition
# order; _PRIORITY names missing from the registry fail the registry pytest.
# Round 5 (VERDICT r4 #6): rotated ~10 slots that were ★ in r3+r4 out for
# queries never externally gated (they keep in-repo pytest oracle coverage;
# the rotated-out ones keep theirs too) — out: source_stats_salted/_subset/
# _t15, m4_downsample, lttb_downsample, orders_no_lineitem,
# revenue_by_region, epn_full_sine, knn_cosine, dedup_exact_keep; in:
# sax_symbols, best_shift, best_shift_full, scale_decomposition,
# event_transitions, hll_by_type, ann_pq, clean_text, wav_features,
# decontam_table.
# Round 5 late additions: three more twice-★ slots (top_orders_q3,
# order_priority_skewjoin, corpus_pack512) swapped for this round's new
# drawdown / mann_kendall / dedup_incremental so they get driver-grade
# evidence too; profit_by_nation_year keeps the join family in the gate.
# Final r5 rotation: four more twice-★ slots whose §2 rows keep another
# ★ pin (haar_l1 -> dwt_haar/roundtrip_haar for T1; dwt_db4 ->
# roundtrip_db4 for T2/T3; gorilla_blocks -> codec_ok for ST1;
# topk_tokens -> epn_quantiles for K1) swapped for this session's new
# max_subarray / tier_pick / dau_mau / peak_concurrency.
# Round 6: the ten round-5 first-time slots (sax_symbols, best_shift,
# best_shift_full, scale_decomposition, event_transitions, hll_by_type,
# ann_pq, clean_text, wav_features, decontam_table) rotate out for ten
# never-gated queries now built on the shared skeletons: the three
# first-per-key folds (new_vs_returning, repeat_revenue_share,
# first_week_value), three more fold_by_part queries (sessionize,
# gap_cluster, order_priority_revenue) and four map_docs queries
# (autocorr_lag1, cusum_flags, period_detect, peak_windows).
# Round 7: those ten round-6 first-time slots rotate out for ten
# never-gated queries now folded by keyed_agg instead of a Ray hash
# aggregate over token, pair, order or user keys: bigram_code_bits,
# fulfillment_bands, backlog_peak, vocab_growth, supplier_hhi, best_atom
# (argmax inside the per-doc map), repurchase_interval, gini_tokens,
# dup_events and user_burstiness.
# Round 8: eight of those round-7 slots (bigram_code_bits,
# fulfillment_bands, backlog_peak, vocab_growth, best_atom, gini_tokens,
# dup_events, user_burstiness) rotate out for eight never-gated queries
# whose map-side key joins now go through skeletons.broadcast_dim:
# revenue_by_nation, region_share_by_year, part_size_vs_qty,
# discount_uplift, type_mad, rare_token_docs, profile_outliers and
# source_report (supplier_hhi and repurchase_interval stay: they moved too).
# Round 9: those eight round-8 slots rotate out for eight never-gated
# queries whose Ray hash aggregates became a keyed_agg or a collect_agg
# driver fold: arrival_dispersion, round_bias, user_lifespan_hist,
# transition_latency, anomaly_mad, volume_rhythm, vocab_top20 and
# cooc_pairs.
# Round 10: those eight round-9 slots rotate out for eight never-gated
# queries whose Ray group-bys now all go through skeletons.fold_by_part
# (or keyed_agg on it): hod_median and daily_value_bands (one fold over
# the per-batch histogram partials), neardup_raretok (keyed_agg over its
# signatures), max_quiet, inverted_index, window_copairs,
# bigram_diversity and retention_cohorts.
# Round 11: five of those round-10 slots (hod_median, daily_value_bands,
# max_quiet, inverted_index, window_copairs) rotate out for five
# never-gated queries that ran on a fixed actor pool and now run as plain
# batch tasks: tfdf_top3, bloom_prescreen, length_rank, boilerplate_3gram
# and langid_confusion.
_PRIORITY = [
    # core §2 pins
    "rollup_t1", "rollup_t3", "rollup_t6", "source_stats", "store_stats",
    "store_tier3", "max_subarray", "roundtrip_haar", "roundtrip_db4",
    "aggtree_ok", "codec_ok", "epn_quantiles", "epn_full",
    "parseval_ok", "resample64", "bandpass_coarse", "scale_energy",
    "fft_magnitude", "dwt_haar", "tier_pick", "dau_mau", "normalize",
    "cross_source_diff", "peak_concurrency",
    # first-time-gated queries (rounds 10 and 11)
    "neardup_raretok", "supplier_hhi", "repurchase_interval",
    "bigram_diversity", "retention_cohorts",
    "tfdf_top3", "bloom_prescreen", "length_rank", "boilerplate_3gram",
    "langid_confusion",
    # late core additions + the join family
    "store_refresh", "drawdown",
    "mann_kendall", "profit_by_nation_year", "dedup_incremental",
    # data-pipeline family
    "dedup_exact", "dedup_minhash", "dedup_simhash",
    "dedup_keep", "ann_ivf", "ann_lsh", "lang_id",
    "token_count_bpe", "fingerprint_rolling", "corpus_clean", "decontam",
]


def _registry() -> dict[str, tuple]:
    from wavelet_decomposition_ray.pipelines.data_queries import DATA_QUERIES
    from wavelet_decomposition_ray.pipelines.queries import CORE_QUERIES

    merged = dict(CORE_QUERIES)
    merged.update(DATA_QUERIES)
    ordered = {name: merged[name] for name in _PRIORITY}
    ordered.update(merged)
    return ordered


def queries() -> dict[str, Callable[[str], Any]]:
    from wavelet_decomposition_ray import synth

    # materialize the synth inputs the oracle SQL reads (idempotent,
    # deterministic, byte-stable)
    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        synth.ensure_sequences(sf)
        synth.ensure_benchmark(sf)  # decontam_table's separate eval table
    return {name: fn for name, (fn, _) in _registry().items()}


def oracle_sql() -> dict[str, str]:
    return {name: sql for name, (_, sql) in _registry().items() if sql is not None}
