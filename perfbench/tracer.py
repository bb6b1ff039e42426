"""Outside-in span tracer for the advdiff package.

The tracer never edits the package.  It replaces, for the duration of each
traced request, every public function of every ``advdiff`` module under the
name its caller looks it up by (``advdiff.cli.solve``,
``advdiff.commutators.instantiate``, ``advdiff.regimes.classify``, ...), and
the ``numpy.fft`` / ``scipy.fft`` transforms both on their own modules and
wherever an advdiff module imported them by name.  Each call becomes a span
``(name, start, end, parent, bytes)`` kept in memory in the list of the
request that made it; ``bytes`` is the computed input plus output size of an
FFT call and 0 otherwise.  Span names are ``<defining module>.<function>``,
and ``fft.<library>.<transform>`` for the transforms.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

PACKAGE = "advdiff"
FFT_TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
FFT_PREFIX = "fft."


def _fft_functions():
    """(library, transform, module, function) for every wrapped FFT transform."""
    import numpy.fft  # not at module level: the benchmark times the package's first import
    import scipy.fft

    return [
        (library, name, mod, getattr(mod, name))
        for library, mod in (("numpy", numpy.fft), ("scipy", scipy.fft))
        for name in FFT_TRANSFORMS
    ]


class Tracer:
    """Collects the spans of each traced request; see the module docstring."""

    def __init__(self) -> None:
        self.requests: list[list[tuple]] = []
        self._spans: list | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- wrapping

    def _wrap(self, fn, name: str, is_fft: bool):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self._spans
            if is_fft and stack and spans[stack[-1]][0].startswith(FFT_PREFIX):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent, 0))
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, 0)
            if is_fft:
                nbytes = getattr(args[0], "nbytes", 0) + getattr(out, "nbytes", 0)
                spans[index] = (name, start, end, parent, nbytes)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the FFT transforms and every public advdiff function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        fft_wrappers = {}
        for library, name, mod, fn in _fft_functions():
            wrapper = self._wrap(fn, f"{FFT_PREFIX}{library}.{name}", is_fft=True)
            fft_wrappers[id(fn)] = wrapper
            self._patch(mod, name, wrapper)
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in fft_wrappers:
                    self._patch(mod, attr, fft_wrappers[id(value)])
                    continue
                owner = getattr(value, "__module__", None) or ""
                if (
                    attr.startswith("_")
                    or isinstance(value, type)
                    or not callable(value)
                    or not (owner == PACKAGE or owner.startswith(PACKAGE + "."))
                ):
                    continue
                name = f"{owner.rsplit('.', 1)[-1]}.{getattr(value, '__name__', attr)}"
                self._patch(mod, attr, self._wrap(value, name, is_fft=False))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def request(self):
        """Install the wrappers and collect the spans of one request into a new list."""
        self.install()
        self._spans = []
        self._stack.clear()
        try:
            yield
        finally:
            self.requests.append(self._spans)
            self._spans = None
            self.uninstall()

    # --------------------------------------------------------------- output

    def write(self, path) -> None:
        """One CSV row per span: request, span, parent, name, start_s, end_s, bytes."""
        with open(path, "w") as fh:
            fh.write("request,span,parent,name,start_s,end_s,bytes\n")
            for r, spans in enumerate(self.requests):
                for i, (name, start, end, parent, nbytes) in enumerate(spans):
                    fh.write(f"{r},{i},{parent},{name},{start!r},{end!r},{nbytes}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
