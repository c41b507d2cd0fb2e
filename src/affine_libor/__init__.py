"""Affine bond-ratio LIBOR models.

Non-negative forward rates driven by affine processes on the positive
orthant: transform evaluation (closed form or generalized Riccati ODEs),
term-structure calibration, caplet/floorlet/swaption pricing by Fourier
inversion and by non-central chi-square closed forms, and an exact-
transition Monte Carlo oracle for validation.
"""

from .affine_core import (RiccatiRhs, TransformPair, check_semiflow,
                          riccati_solve, transform)
from .distributions import (ChiSqMixSpec, chisq_mix_cdf, chisq_mix_sf,
                            ncchi2_cdf, ncchi2_sf)
from .errors import (AffineLiborError, BlowUp, ConvergenceFailure,
                     DampingOutOfStrip, DomainViolation, HorizonViolation,
                     InfeasibleCurve, InvalidGrid, InvalidParameter,
                     ModelMismatch, NonMonotoneCurve, NoSignChange,
                     OutOfBounds, ParseError, QuadratureFailure,
                     StepUnderflow)
from .model import (CalibratedModel, ForwardExponents, TenorStructure,
                    estimate_gamma_x, fit_term_structure, forward_exponents,
                    libor_rate, martingale_value, tilt_exponents)
from .montecarlo import (MartingaleReport, PathBatch, RngStream, agrees,
                         forward_measure_weights, martingale_check,
                         martingale_checks, mc_caplet, mc_price, mc_swaption,
                         model_states, simulate_cir, simulate_gamma_ou,
                         simulate_process)
from .pricing import (CapletSpec, PriceResult, SurfaceCell, SwaptionSpec,
                      black76_implied_vol, caplet_cir2f_closed,
                      caplet_cir_closed, caplet_closed, caplet_fourier,
                      floorlet_cir_closed, floorlet_fourier,
                      swaption_cir_closed, swaption_fourier, swaption_root,
                      vol_surface)
from .processes import (CirParams, GammaOuParams, LevySubordinatorSpec,
                        ProductProcess, RiccatiProcess, two_factor_cir)

__version__ = "0.1.0"
