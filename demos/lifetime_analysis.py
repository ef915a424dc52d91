"""Walk-through: lifetime extraction from pulsed-decay traces.

Simulates the two emission channels at realistic count levels, fits them,
pools the per-band lifetimes and finally extracts the activation energy
of the thermally assisted decay. Run with `python3 demos/lifetime_analysis.py`.
"""

import numpy as np

from sicpl.decay import fit_decay, fit_thermal, pool_lifetimes, thermal_lifetime
from sicpl.synth import GeneratorSpec, generate

# ---------------------------------------------------------------------
# 1. a single-channel trace, ~10^4 peak counts over a 20 counts/bin floor

spec = GeneratorSpec(
    seed=42, kind="decay",
    truth={"components": [(1e4, 164.2)], "background": 20.0, "pulse_time": 100.0},
    sampling={"t_start": 0.0, "t_end": 1800.0, "bin_ns": 1.0},
    noise={"kind": "poisson"},
)
trace = generate(spec)
res = fit_decay(trace)
A, tau = res.components[0]
print(f"fast channel: model={res.model_kind}  tau = {tau:.2f} +/- {res.sigma3[1]:.2f} ns"
      f"  (truth 164.2, background {res.background:.1f})")

# ---------------------------------------------------------------------
# 2. a two-channel trace; `auto` must find both components on its own

spec = GeneratorSpec(
    seed=7, kind="decay",
    truth={"components": [(2e4, 158.5), (2e4, 43.3)],
           "background": 20.0, "pulse_time": 1000.0},
    sampling={"t_start": 0.0, "t_end": 3000.0, "bin_ns": 1.0},
    noise={"kind": "poisson"},
)
res2 = fit_decay(generate(spec), kind="auto")
print(f"mixed band:  model={res2.model_kind}")
for i, (amp, t) in enumerate(res2.components, 1):
    print(f"  component {i}: tau = {t:7.2f} +/- {res2.sigma3[2 * i - 1]:.2f} ns"
          f"   A = {amp:9.1f}")

# pool the slow channel from both fits (inverse-variance weighting)
pooled = pool_lifetimes([
    (tau, res.sigma3[1] / 3.0),
    (res2.components[0][1], res2.sigma3[1] / 3.0),
])
for ch in pooled:
    print(f"pooled channel: tau = {ch.tau:.2f} +/- {ch.sigma:.2f} ns"
          f" ({ch.n_members} members)")

# ---------------------------------------------------------------------
# 3. temperature dependence -> activation energy

spec = GeneratorSpec(
    seed=11, kind="thermal_series",
    truth={"tau": 163.0, "tau_p": 83.0, "e_p": 28.0},
    sampling={"temperatures": [4, 25, 50, 75, 100, 125, 150, 175]},
    noise={"kind": "gaussian", "sigma_frac": 0.02},
)
points = generate(spec)
model = fit_thermal(points)
print(f"\nthermal model: tau = {model.tau:.1f} ns, tau_p = {model.tau_p:.1f} ns,"
      f" E_p = {model.e_p:.1f} +/- {model.sigma3[2]:.1f} meV  (truth 28)")

print("\n   T (K)   measured   model")
for T, v, s in points:
    print(f"  {T:6.0f}   {v:8.2f}   {model(T):7.2f}")

# sanity: the model collapses to the intrinsic lifetime at low temperature
assert abs(model(1.0) - model.tau) < 1e-6 * model.tau
print(f"\nlow-T limit: tau_tot(1 K) = {thermal_lifetime(1.0, model.tau, model.tau_p, model.e_p):.2f} ns")
