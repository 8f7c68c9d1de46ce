"""spin-atlas: cross-relaxation feature prediction and PL-trace fitting for
NV-center multi-spin systems in diamond."""

from .operators import embed, rotate_tensor, spin_operators
from .sweep import (
    CrossingEvent,
    CrossingFeature,
    SweepConfig,
    cluster_features,
    detect_events,
    find_features,
    temperature_shift,
)
from .catalog import get_system, list_systems
from .system import Coupling, Hyperfine, InteractionTensor, Site, SpeciesKind, SpinSystem, ZfsParams
from .thermal import ThermalZfsModel, occupation
from .traces import Dip, DipFit, Trace, fit_dips, fit_report, load_trace, side_peak_separations

__version__ = "0.1.0"
