"""Bug thermometers (Section 3.3).

Each predicate's statistics are visualised as a "thermometer":

* total length is *logarithmic* in the number of runs in which the
  predicate was observed to be true (``F(P) + S(P)``);
* a black band showing ``Context(P)`` as a fraction of the length;
* a dark-gray (red) band showing the lower confidence bound of
  ``Increase(P)``;
* a light-gray (pink) band showing the confidence interval's width;
* white space on the right for the successful runs (``S(P)``), i.e. the
  non-deterministic remainder.

This module renders thermometers as fixed-width text (for terminal
tables) and as small inline HTML (for report pages).  Band proportions
are exact up to character quantisation; a property test asserts the band
widths always sum to the thermometer length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.scores import ScoreRow

#: Glyphs for the text rendering, in band order.
_GLYPHS = {
    "context": "#",
    "increase": "=",
    "interval": "~",
    "white": " ",
}

#: HTML colours matching the paper's description (black, red, pink, white).
_COLOURS = {
    "context": "#000000",
    "increase": "#cc0000",
    "interval": "#ffaaaa",
    "white": "#ffffff",
}


@dataclass(frozen=True)
class Thermometer:
    """A predicate's thermometer geometry.

    Attributes:
        length: Total length in abstract units (log-scaled run count).
        context: Width of the black ``Context`` band.
        increase: Width of the dark band (lower bound of ``Increase``).
        interval: Width of the light confidence-interval band.
        white: Remaining width (non-predictive successful mass).
    """

    length: float
    context: float
    increase: float
    interval: float
    white: float

    @classmethod
    def from_row(cls, row: ScoreRow, max_runs: int = 1) -> "Thermometer":
        """Build a thermometer from a predicate's score row.

        Args:
            row: Scalar scores of the predicate.
            max_runs: Largest ``F+S`` in the table being rendered, used to
                normalise lengths across rows (all log-scaled).
        """
        observed_true = max(row.F + row.S, 1)
        scale_max = max(max_runs, 2)
        length = math.log(observed_true + 1) / math.log(scale_max + 1)
        context = max(min(row.context, 1.0), 0.0)
        lo = max(min(row.increase_lo, 1.0 - context), 0.0)
        hi = max(min(row.increase_hi, 1.0 - context), lo)
        interval = hi - lo
        white = max(1.0 - context - lo - interval, 0.0)
        return cls(
            length=length,
            context=context * length,
            increase=lo * length,
            interval=interval * length,
            white=white * length,
        )

    def render_text(self, width: int = 24) -> str:
        """Render as a fixed-width bracketed bar, e.g. ``[##===~    ]``.

        The bar is ``round(length * width)`` characters wide inside a
        ``width``-character field, so longer thermometers (more runs)
        appear longer, as in the paper.
        """
        if width < 1:
            raise ValueError("width must be positive")
        bar_len = max(int(round(self.length * width)), 1)
        if self.length <= 0:
            bar_len = 1
        widths = self._quantise(bar_len)
        bar = (
            _GLYPHS["context"] * widths["context"]
            + _GLYPHS["increase"] * widths["increase"]
            + _GLYPHS["interval"] * widths["interval"]
            + _GLYPHS["white"] * widths["white"]
        )
        return f"[{bar}]".ljust(width + 2)

    def render_html(self, width_px: int = 120, height_px: int = 10) -> str:
        """Render as an inline-block HTML bar with the paper's colours."""
        total = max(self.length, 1e-9)
        bar_px = max(int(round(self.length * width_px)), 1)
        spans = []
        for band in ("context", "increase", "interval", "white"):
            frac = getattr(self, band) / total
            px = int(round(frac * bar_px))
            if px <= 0:
                continue
            spans.append(
                f'<span style="display:inline-block;width:{px}px;'
                f"height:{height_px}px;background:{_COLOURS[band]};"
                f'"></span>'
            )
        return (
            f'<span style="border:1px solid #888;display:inline-block;'
            f'line-height:0;">{"".join(spans)}</span>'
        )

    def _quantise(self, bar_len: int) -> dict:
        """Distribute ``bar_len`` characters over the four bands.

        Uses largest-remainder rounding so the band widths always sum to
        exactly ``bar_len``.
        """
        total = self.context + self.increase + self.interval + self.white
        if total <= 0:
            return {"context": 0, "increase": 0, "interval": 0, "white": bar_len}
        names = ("context", "increase", "interval", "white")
        exact = {n: getattr(self, n) / total * bar_len for n in names}
        floors = {n: int(math.floor(exact[n])) for n in names}
        leftover = bar_len - sum(floors.values())
        remainders = sorted(names, key=lambda n: exact[n] - floors[n], reverse=True)
        for n in remainders[:leftover]:
            floors[n] += 1
        return floors
