"""Energy-optimal on/off speed control for low-consumption race vehicles."""

from .controller import (
    ControllerConfig,
    RaceResult,
    ReplanRecord,
    TelemetrySample,
    min_switch_interval,
    replan,
    run_race,
    switch_logic,
)
from .dynamics import (
    CONSTANT_ELECTRICAL,
    DEFAULT_PARAMS,
    WHEEL_POWER,
    AssumptionReport,
    FrozenDynamics,
    Leg,
    PowerModel,
    TrackProfile,
    VehicleParams,
    WindField,
    check_assumptions,
    engine_power,
    freeze,
)
from .errors import (
    DivergenceRiskError,
    DomainError,
    EcodriveError,
    InfeasibleCandidateError,
    InfeasibleSliceError,
    InfeasibleTargetError,
    InvalidProfileError,
    InvalidSegmentError,
    NumericError,
    ScenarioError,
)
from .optimizer import (
    GridSpec,
    OscillationBand,
    band_cost,
    band_from_limits,
    optimal_band,
)
from .scenario import Scenario, emit_report, load_scenario, write_scenario

__version__ = "0.1.0"
