"""dmfv: design-rule and conformance verifier for digital microfluidic
actuation programs (general-purpose, pin-constrained and cyberphysical chips)."""

from .isa import (ChipHeader, DetectorDecl, Loc, MType, Program, RKind,
                  ReservoirDecl, parse_program, serialize_program,
                  validate_structure)
from .chip import CFVector, ChipState, cf_mix, init_state, expire_mixers
from .diag import Code, Report, Violation, format_report
from .fluidics import Trace, step, verify_program
from .graph import (SeqGraph, conformance, parse_input_sg, ratio_str, reconstruct,
                    round_cf, to_dot)
from .pins import PinMap, check_case1, check_pair, parse_pins
from .branches import path_shapes, verify_all_paths

__version__ = "0.1.0"
