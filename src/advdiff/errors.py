"""Exceptions that ``cli.main`` maps to exit codes, importable without numpy,
so the ``regime`` commands can catch them without loading the solver."""

from __future__ import annotations

__all__ = ["SolverAbort"]


class SolverAbort(RuntimeError):
    """Numerical abort: CFL violation or non-finite state, with step context."""

    def __init__(self, step: int, time: float, reason: str):
        super().__init__(f"solver aborted at step {step} (t={time:.6g}): {reason}")
        self.step = step
        self.time = time
        self.reason = reason
