"""Deterministic ray-optical V2V channel simulator and MIMO metric toolkit.

The pipeline runs in four stages, each usable on its own:

1. ``scene`` / ``scenarios``: 3D urban geometry with per-surface materials.
2. ``raytracer``: LOS, image-method specular reflections and single-bounce
   Lambertian diffuse scattering per snapshot.
3. ``channel``: snapshot interpolation and time-variant MIMO CIR/CTF
   synthesis with polarimetric antenna arrays.
4. ``metrics`` / ``compare``: APDP, channel gain, delay/Doppler spreads,
   eigenvalues, antenna correlations, and LOS/NLOS-segmented error reports.
"""

from .antenna import (AntennaPattern, ArrayElement, ArrayLayout,
                      cardioid_pattern, default_sharkfin_array,
                      isotropic_array, isotropic_pattern, pattern_gain)
from .channel import (ChannelTensor, PathInterpolator, SimConfig,
                      add_measurement_noise, cir_to_ctf, ctf_to_cir,
                      load_tensor, save_tensor, synthesize_cir, synthesize_tensor)
from .compare import (ErrorStats, SegmentLabels, error_series, error_stats,
                      render_report, segment_los_nlos)
from .metrics import (Apdp, Dsd, MetricSeries, antenna_correlation,
                      apply_noise_threshold, channel_gain, compute_apdp,
                      compute_dsd, eigenvalue_series, estimate_noise_floor,
                      rms_delay_spread, rms_doppler_spread)
from .raytracer import (PathSet, PropagationPath, TracerConfig, fresnel_coefficients,
                        image_method_specular, lambertian_diffuse, trace_los,
                        trace_snapshot)
from .scene import (Material, Scene, Surface, Trajectory, extrude_footprint,
                    load_scene, load_trajectory, occlusion_test)

__version__ = "0.1.0"
