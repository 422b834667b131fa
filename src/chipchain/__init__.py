"""Desk-scale simulation of memory-chip-rooted network identity.

The pipeline, bottom to top: simulated chips expose a failure-row
fingerprint (chip_model), whose randomness is quantified exactly
(entropy_analysis); fingerprints answer challenges and seed
deterministic keypairs (identity); keys execute transfer trees stamped
into a proof-of-work chain (ledger, _pow); and a scripted network of
management, security, device, and attacker nodes, read from a text
config (config), exercises the whole protocol deterministically
(network_sim).
"""

from ._pow import active_kernel, pow_search
from .chip_model import (
    ACCESS_NORMAL,
    ACCESS_SPECIAL,
    ChipGeometry,
    FailureModel,
    GENERATIONS,
    GENERATION_CAPACITY,
    GENERATION_ROWS,
    HMAC_BACKEND,
    Prn,
    SimulatedChip,
    extract_prn,
    format_chip_fixture,
    generation_geometry,
    load_chip_fixture,
    new_chip,
    parse_chip_fixture,
    read_column_normal,
    write_column,
)
from .entropy_analysis import (
    CollisionReport,
    EntropyReport,
    collision_report,
    combinations,
    entropy_report,
    format_scientific,
    generation_table,
)
from .errors import (
    CapacityExceeded,
    ChainInvalid,
    ChipChainError,
    ColumnOutOfRange,
    ConfigInvalid,
    CountTooLarge,
    CycleDetected,
    FixtureInvalid,
    GeometryInvalid,
    KExceedsN,
    MultipleSinks,
    NonceExhausted,
    NumberInvalid,
    PreprocessMissing,
    PrimeSearchExhausted,
    SignatureMalformed,
    StateMismatch,
    UnknownChip,
    UnknownGeneration,
)
from .identity import (
    Audit,
    AuditVerdict,
    Challenge,
    ChipKeyPair,
    MAX_STATE_INDEX,
    POWMOD_BACKEND,
    PRIME_BACKEND,
    PublicKey,
    Response,
    SecretKey,
    SUPPORTED_MODULUS_BITS,
    crp_audit,
    derive_keypair,
    key_fingerprint,
    keypair_for_chip,
    make_challenge,
    respond,
    sign,
    verify,
)
from .ledger import (
    Block,
    ChipMerkleTree,
    ChipNode,
    GENESIS_SIGNATURE,
    MAX_MINING_DIFFICULTY,
    RootStamp,
    TransactionRecord,
    ZERO_HASH,
    block_hash,
    build_tree,
    fold_hash,
    leading_zero_bits,
    load_chain,
    mine_block,
    parse_chain,
    record_hash,
    replace_chip,
    rotate_state_reproduce,
    save_chain,
    seat_tree,
    serialize_chain,
    transfer,
    verify_chain,
    verify_record,
    verify_tree,
)
from .config import (
    ScenarioConfig,
    bundled_scenario,
    load_scenario,
    load_topology,
    parse_scenario,
    parse_topology,
)
from .network_sim import EventLog, Simulation, check_invariants, run_scenario

__version__ = "0.1.0"
