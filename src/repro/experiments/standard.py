"""The paper's standard controller lineup (§IV-B) and its extensions, as factories.

The device-local factories come from :func:`repro.control.zoo.zoo_controllers`;
this module adds the two that need the scenario context (Reservation, Oracle)
and FrameFeedback with non-default settings.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.control.base import Controller
from repro.control.framefeedback import (
    FrameFeedbackController,
    FrameFeedbackSettings,
)
from repro.device.config import DeviceConfig

ControllerFactory = Callable[[DeviceConfig], Controller]

#: the §IV-B lineup, in report order
STANDARD = ("FrameFeedback", "LocalOnly", "AlwaysOffload", "AllOrNothing")
#: the extension lineup, in report order; the rest of the zoo follows
EXTENDED = STANDARD + ("AIMD", "Reservation", "Headroom", "FrameFeedback+Q", "Oracle")


def framefeedback_factory(
    settings: FrameFeedbackSettings = FrameFeedbackSettings(),
) -> ControllerFactory:
    """Factory for a FrameFeedback controller with given settings."""

    def make(config: DeviceConfig) -> Controller:
        return FrameFeedbackController(config.frame_rate, settings)

    return make


def standard_controllers() -> Dict[str, ControllerFactory]:
    """All four §IV controllers keyed by their report names."""
    from repro.control.zoo import zoo_controllers

    zoo = zoo_controllers()
    return {name: zoo[name] for name in STANDARD}


def oracle_factory():
    """Clairvoyant oracle; needs the scenario context (schedules)."""
    from repro.control.oracle import OracleController

    def make(config: DeviceConfig, context) -> Controller:
        return OracleController(
            frame_rate=config.frame_rate,
            frame_bytes=config.frame_spec.bytes_on_wire,
            deadline=config.deadline,
            network=context.network,
            load=context.load,
            gpu_model=context.gpu_model,
            model_name=config.model.name,
        )

    return make


def reservation_factory():
    """ATOMS-lite reservation baseline; builds a broker on the server."""
    from repro.control.reservation import ReservationController
    from repro.server.admission import ReservationBroker

    def make(config: DeviceConfig, context) -> Controller:
        broker = ReservationBroker(context.env, context.server, context.gpu_model)
        return ReservationController(config.frame_rate, broker, config.name)

    return make


def extended_controllers() -> Dict[str, ControllerFactory]:
    """Standard lineup plus the extension controllers and the zoo.

    Every device-local :func:`repro.control.zoo.zoo_controllers` member
    resolves here (those outside :data:`EXTENDED` after it, in registry
    order), next to the two that need the scenario context, so scenario
    configs, the sweep pool and the tournament can address the whole zoo
    by name.
    """
    from repro.control.zoo import zoo_controllers

    zoo = zoo_controllers()
    context = {"Reservation": reservation_factory(), "Oracle": oracle_factory()}
    out = {name: context[name] if name in context else zoo[name] for name in EXTENDED}
    for name, factory in zoo.items():
        out.setdefault(name, factory)
    return out
