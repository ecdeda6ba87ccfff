import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Shared hosts can have a co-tenant that steals CPU in bursts
# (see BASELINE_HISTORY.md's quiet-window protocol); hypothesis's too_slow
# health check measures wall-clock data generation and flakes under
# such a burst even though every property test pins deadline=None.
# Suppress just that check globally — per-test @settings don't set
# suppress_health_check, so the profile value applies everywhere.
from hypothesis import HealthCheck, settings as _hyp_settings

_hyp_settings.register_profile(
    "shared_host", suppress_health_check=[HealthCheck.too_slow]
)
_hyp_settings.load_profile("shared_host")


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
    )
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus():
    """Deterministic 300-doc synthetic source-code corpus (arrow table)."""
    from searchengine_ray.corpus import synthetic_corpus_table

    return synthetic_corpus_table(300, seed=7)


@pytest.fixture(scope="session")
def built_index(ray_session, small_corpus, tmp_path_factory):
    """Index built once per session over the small corpus."""
    import ray.data

    from searchengine_ray.build import IndexBuildConfig, build_index

    index_dir = str(tmp_path_factory.mktemp("index"))
    cfg = IndexBuildConfig(
        num_buckets=4,
        skip_block=8,          # small blocks exercise WAND skipping
        heavy_df_threshold=50,  # force salting on common terms
        docs_per_shard=128,     # force multiple shards
    )
    ds = ray.data.from_arrow(small_corpus).repartition(4)
    manifest = build_index(ds, index_dir, cfg, input_description="test300")
    return index_dir, manifest


@pytest.fixture(scope="session")
def oracle(small_corpus):
    """Independent in-memory model of the reference engine, built with
    plain dict/loops straight from the corpus table."""
    from tests.oracle import ReferenceOracle

    return ReferenceOracle(small_corpus)


@pytest.fixture(scope="session")
def engine(built_index):
    from searchengine_ray.query.engine import QueryEngine

    index_dir, _ = built_index
    return QueryEngine(index_dir)
