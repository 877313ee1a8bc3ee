"""KeyDB-like key-value store: the paper's §4.1/§4.3 application study."""

from .experiment import (
    TABLE1_CONFIGS,
    KeyDbExperiment,
    build_keydb_experiment,
    run_keydb_config,
    run_keydb_cxl_only,
)
from .des_server import DesKeyDbServer
from .flash import FlashTier
from .core import KeyDbResult
from .server import KeyDbServer
from .store import AccessPlan, KeyValueStore, ServiceProfile

__all__ = [
    "TABLE1_CONFIGS",
    "KeyDbExperiment",
    "build_keydb_experiment",
    "run_keydb_config",
    "run_keydb_cxl_only",
    "DesKeyDbServer",
    "FlashTier",
    "KeyDbResult",
    "KeyDbServer",
    "AccessPlan",
    "KeyValueStore",
    "ServiceProfile",
]
