"""Portfolio optimization in fractional and rough Heston models.

Building blocks: CIR simulation, fractional/rough volatility constructions,
measure quantization (finite-atom Markovian approximation), Riccati-based
affine value functions, and Monte Carlo cross-validation.
"""
from .config import ScenarioConfig, load_config
from .mc import (McEstimate, convergence_study, map_paths, mc_feynman_kac,
                 mc_utility, mc_value_rough)
from .params import (DerivedConstants, ModelParams, Regime, default_params,
                     hurst_of_alpha, merton_ratio, regime_of_alpha)
from .quantize import (MeasureKind, QuantizedMeasure, approx_kernel,
                       dyadic_chain, frac_kernel, measure_for_atoms)
from .riccati import (AffineValue, RiccatiBlowUp, RiccatiSolution, psi,
                      solve_riccati_finite, solve_riccati_limit,
                      solve_riccati_rough, value_function, value_function_at_t)
from .sim import (TimeGrid, brownian_batch, simulate_cir, simulate_stock,
                  simulate_tilde_z, simulate_wealth)
from .vol import (PositivityMap, SchemeKind, VolScheme, apply_positivity,
                  nu_fractional_euler, nu_quantized_paths,
                  nu_quantized_rough_paths, nu_rough_marchaud)

__version__ = "0.1.0"
