"""The package's public surface: the names each module lists in ``__all__``."""

from __future__ import annotations

import importlib

import marketclear

# ``marketclear.__all__`` as it stood when ``__init__.py`` listed every name
# by hand; building it from the modules' own lists must keep it.
RECORDED = """
AggregateEquilibrium AggregateMarket AggregateNTMarket AggregateNTOutcome
Array BracketOptions CombinedFrontier EquilibriumMap ExcessVector
FrontierGrid HedonicMarket IndividualMarket IndividualOutcome
InstanceTooLarge InternalError IrreducibilityViolation IsotonicityReport
LoadedMarket MarketFileError MaxRoundsExceeded MaxSweepsExceeded NTUFrontier
NonFiniteResidual NonintegrabilityReport PriceVector ResponsivenessViolation
SetOrderReport SolveTrace SolverError SolverOptions TUFrontier
TaxBracketFrontier TaxSchedule TaxesFrontier TraceRecord UnsupportedFrontier
__version__ adachi_map adachi_solve build_full_assignment_map
build_hedonic_map build_housing_full_assignment_map build_housing_map
build_matching_map build_ot_map build_transfer_map check_inverse_isotone
check_m0_strong_set_order check_nonintegrability combine_distances
constant_aggregate_map coordinate_update dalm damped_step
deferred_acceptance demand disposal_phase enumerate_stable
full_assignment_prices full_assignment_supersolution gauss_seidel_sweep
invert_net_wage is_equilibrium_matching is_stable is_subsolution
is_supersolution jacobi_sweep join lattice_join_I lattice_meet_I linear_map
load_market meet net_wage perron_vector proposal_phase recover_equilibrium
recover_wages singles_subsolution singles_supersolution sinkhorn_update
smallest_root solve supply uniform_subsolution uniform_supersolution
""".split()

MODULES = [
    importlib.import_module(f"marketclear.{name}")
    for name in ("core", "errors", "hedonic", "io", "matching", "transfers")
]


def test_package_exports_the_recorded_names_once():
    assert len(RECORDED) == 86
    assert len(set(marketclear.__all__)) == len(marketclear.__all__)
    assert sorted(marketclear.__all__) == sorted(RECORDED)


def test_each_name_is_the_object_of_its_defining_module():
    for name in marketclear.__all__:
        if name == "__version__":
            continue
        owners = [module for module in MODULES if name in module.__all__]
        assert len(owners) == 1, name
        assert getattr(marketclear, name) is getattr(owners[0], name), name


def test_every_listed_name_resolves():
    for module in MODULES:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
