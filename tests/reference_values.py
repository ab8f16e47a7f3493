"""Frozen reference constants for the example channel (taps 1, 0.5, 0.5 with
radius 1e-3 each) and a few auxiliary channels.

Computed by scripts/compute_reference_values.py, which shares no code with
the package: 2**20-point periodic trapezoid quadrature with Richardson
extrapolation and long bisections.  Regenerate with

    python3 scripts/compute_reference_values.py

which prints one ``NAME = value`` line for each constant here, ready to
paste; CI checks that every constant matches it to 1e-12 relative.
"""

EXAMPLE_K = 2
EXAMPLE_C = (1.0, 0.5, 0.5)
EXAMPLE_R = (1e-3, 1e-3, 1e-3)

ALPHA_EXAMPLE = 0.46770717334674267  # sqrt(7/32)
BETA_EXAMPLE = 2.0                   # attained at zero frequency
J_EXAMPLE = 1.5

THETA1_P_0_1 = 0.6344853172428488    # water level at P = 0.1 W
C0_P100 = 3.3326679585925882         # capacity at P = 100 W

P_SAT_W = 222219.2222222222
P_SAT_DBW = 53.46781623209576
DELTA2_AT_PSAT = 0.7620767186225935
GAP_COR2_EXAMPLE = 1.7620767657615772

# radius-sum-only gap at P = 30 dBW with r_s = 1e-3
PILLOW_TERMS_30DBW = (
    0.0021624211506207254,
    0.01331244698308836,
    0.7213475204444817,
)
PILLOW_SUM_30DBW = 0.7368223885781908

# flat single-tap channel with radius 0.5: saturation level and water
THETA2_FLAT_R05 = 7.0
