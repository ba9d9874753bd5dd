"""Desk-scale simulator for phase-locked collective-spin magnetometry.

Layers: exact Dicke-basis evolution (dicke), the four-pulse squeezing
train's reduction error (squeezing), printed closed-form expectations
(analytic), tone noise and pulse-train phase accumulation (noise, lockin),
Monte-Carlo sweeps over one numpy kernel (montecarlo, kernels), and a
config-driven CLI (cli).

Each public name lives in the module that defines it and is imported from
there (``from spinlock.montecarlo import McConfig``); importing the package
loads no layer.
"""

__version__ = "0.4.1"
