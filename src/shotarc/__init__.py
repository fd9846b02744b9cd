"""shotarc: shot-trajectory reconstruction and perimeter-defense metrics.

Subpackages by pipeline stage:

  core        geometry constants, frames, units
  ingest      tracking/event/roster loading and shot extraction
  trajectory  Bayesian quadratic-surface fitting and season filtering
  factors     depth / left-right / entry angle from fitted arcs
  makeprob    logistic shot-make model
  effects     defender-impact and shooter-resilience regressions
  sim         synthetic season generator with a rim-geometry oracle
  evaluate    variance ratios, profiles, subsample MSE, rank stability
  cli         command-line pipeline (``shotarc <subcommand>``)

Import names from the stage modules; importing the package itself loads
none of them.
"""

__version__ = "0.1.0"
