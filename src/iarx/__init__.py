"""Interval ARX forecasting over a pattern moving space.

A scalar operating-condition series is clustered into ordered pattern
classes, each represented by a closed interval; the encoded interval
series is modeled by a two-channel interval ARX predictor whose center
channel is fit by least squares and whose radius channel is fit by
nonnegative least squares. Forecasts are snapped back onto the pattern
classes, so final outputs always live in the space they were learned from.

The package re-exports nothing: each name is imported from its own module
(``iarx.intervals``, ``iarx.pattern_space``, ``iarx.model``,
``iarx.pipeline``, ``iarx.data_io``, ``iarx.errors``).
"""

__version__ = "0.1.0"
