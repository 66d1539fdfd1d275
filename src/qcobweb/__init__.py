"""Zero-sum-amplitude entangled states and the universal-entangling protocol.

Dense exact statevector simulation, closed-form entanglement accounting, and
independent linear-algebra oracles for every closed form.
"""

from .measures import cobweb_spectrum
from .protocol import BellOutcome, cobweb_state, run_protocol
from .session import run_session
from .states import UnknownQubit, roots_of_unity_zsa

__version__ = "0.1.0"
