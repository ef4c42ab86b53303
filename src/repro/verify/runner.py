"""Suite runner: evaluate the catalogue, optionally through the cache.

The verification suites are deterministic functions of the
:class:`PaperConfig` and the package source, which is exactly the
contract the PR-2 result cache addresses by — so a CI re-run on an
unchanged tree serves the report from disk, and any code or config
change silently re-addresses it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.experiments.params import DEFAULT_CONFIG, PaperConfig
from repro.experiments.registry import Experiment
from repro.runner.cache import ResultCache
from repro.verify.report import VerificationReport


def run_suite(
    suite: str,
    config: Optional[PaperConfig] = None,
    *,
    ids: Optional[Iterable[str]] = None,
) -> VerificationReport:
    """Evaluate one suite of the invariant catalogue."""
    # importing the catalogue registers it; deferred so that importing
    # repro.verify stays cheap for non-verify CLI paths
    from repro.verify import invariants  # noqa: F401
    from repro.verify.registry import REGISTRY

    return REGISTRY.run(suite, config or DEFAULT_CONFIG, ids=ids)


def suite_experiment(suite: str) -> Experiment:
    """The cache-addressing shim for one suite.

    The ``exp_id`` carries the suite name into the cache key, and the
    digest target is :func:`run_suite` itself — so both suites address
    distinct entries under the same code fingerprint.
    """
    return Experiment(
        exp_id=f"V.{suite}",
        description=f"repro.verify {suite} suite",
        run=lambda config=None, _suite=suite: run_suite(_suite, config),
        target=run_suite,
    )


def cached_suite(
    suite: str,
    config: Optional[PaperConfig] = None,
    *,
    cache: Optional[ResultCache] = None,
    force: bool = False,
) -> Tuple[VerificationReport, bool]:
    """Run a suite through the result cache.

    Returns ``(report, from_cache)``.  Selections (``ids``) are never
    cached — a partial run must not masquerade as the full suite.
    """
    store = cache if cache is not None else ResultCache()
    return store.read_through(
        suite_experiment(suite),
        config,
        lambda: run_suite(suite, config),
        force=force,
        kind="verification",
    )
