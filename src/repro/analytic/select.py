"""Per-point backend selection: which sweeps the fast path may serve.

The analytical backend is a *steady-state* model.  It is exact (fig3 /
fig4: same knots, same closed form) or calibrated to within pinned
tolerances (fig5 / fig8: see :mod:`repro.analytic.validate`) wherever
the DES itself converges to a fixed point — but it has nothing to say
about genuinely history-dependent runs: overload admission transients,
fault-injection timelines, the Spark/LLM app models, or the
hot-promotion migration ramp, whose figure-of-merit *is* the transient.

:func:`select_backend` encodes exactly that boundary, per sweep point:

========  =====================================================
target    routing under ``--backend auto``
========  =====================================================
fig3      analytic (closed form is bit-identical to the DES)
fig4      analytic (same; pattern is API fidelity, not physics)
fig5      analytic, except ``hot-promote`` cells -> des (the
          migration ramp is a transient)
fig8      analytic (single-node steady state)
fig7      des (Spark stage model has no analytic counterpart)
fig10     des (serving-rate search)
overload  des (admission-control transients)
========  =====================================================

``des`` names the simulating backend, which is not always the
discrete-event engine: fig5 and fig8 run the *epoch* KeyDB driver
(:class:`~repro.apps.kvstore.server.KeyDbServer`), the only KeyDB
driver with a tiering daemon; overload runs the event-driven one
(:class:`~repro.apps.kvstore.des_server.DesKeyDbServer`).

``--backend analytic`` *forces* the fast path and is rejected with a
:class:`~repro.errors.ConfigurationError` on targets that have none —
a forced backend silently falling back would defeat the point of
forcing it.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Tuple

from ..errors import ConfigurationError

__all__ = [
    "BACKENDS",
    "ANALYTIC_TARGETS",
    "select_backend",
    "require_analytic",
    "estimated_events_avoided",
    "routing_summary",
]

#: Legal values of every ``--backend`` flag / job-spec field.
BACKENDS = ("des", "analytic", "auto")

#: Targets with an analytical counterpart for at least some points.
ANALYTIC_TARGETS = frozenset({"fig3", "fig4", "fig5", "fig8"})


def select_backend(target: str, params: Mapping[str, Any]) -> str:
    """The backend ``auto`` routes one sweep point to.

    Returns ``"analytic"`` for steady-state points with a calibrated
    closed form and ``"des"`` for everything else (transients, faults,
    app models without an analytic counterpart).
    """
    if target not in ANALYTIC_TARGETS:
        return "des"
    if target == "fig5" and params.get("config") == "hot-promote":
        # The hot-promotion cell's figure of merit is the migration
        # transient; keep it on the epoch driver, whose tiering daemon
        # simulates it.
        return "des"
    return "analytic"


def require_analytic(target: str) -> None:
    """Reject ``--backend analytic`` on a target with no fast path."""
    if target not in ANALYTIC_TARGETS:
        raise ConfigurationError(
            f"target {target!r} has no analytical backend (transient or "
            f"app-model sweep); use --backend des or auto"
        )


def estimated_events_avoided(target: str, params: Mapping[str, Any]) -> int:
    """Roughly how many DES events one analytic-routed point skips.

    KeyDB points price one event per operation; MLC points run one
    allocator solve per (mix, load fraction).  The estimate feeds the
    ``--backend auto`` routing summary line — an order-of-magnitude
    narration, not an accounting identity.
    """
    if target in ("fig5", "fig8"):
        return int(params.get("total_ops", 0))
    if target == "fig3":
        return len(params.get("mixes", ())) * len(params.get("fractions", ()))
    if target == "fig4":
        # One curve per distance panel at this (pattern, mix).
        return 4 * len(params.get("fractions", ()))
    return 0


def routing_summary(decisions: Iterable[Tuple[str, int]]) -> str:
    """One-line account of an ``auto`` sweep's routing.

    ``decisions`` yields ``(backend, events_avoided)`` per point; the
    line mirrors the runner's cache summary format, e.g.
    ``backend: 24 analytic, 4 des (~480000 est. DES events avoided)``.
    """
    analytic = des = avoided = 0
    for backend, events in decisions:
        if backend == "analytic":
            analytic += 1
            avoided += events
        else:
            des += 1
    return (f"backend: {analytic} analytic, {des} des "
            f"(~{avoided} est. DES events avoided)")
