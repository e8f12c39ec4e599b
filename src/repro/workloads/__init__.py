"""Workload models: synthetic cores, application models, placement."""

from .apps import APP_MODELS, AppModel, bluray_model, dual_dtv_model, get_app_model, single_dtv_model
from .cores import (
    CoreSpec,
    Stream,
    SyntheticCore,
    audio_core,
    cpu_core,
    demux_core,
    display_core,
    enhancer_core,
    format_converter_core,
    graphics_core,
    h264_codec_core,
    mpeg2_codec_core,
    pvr_core,
)
from .mapping import MEMORY_NODE, Placement, gss_router_order, place

__all__ = [
    "APP_MODELS",
    "AppModel",
    "CoreSpec",
    "MEMORY_NODE",
    "Placement",
    "Stream",
    "SyntheticCore",
    "audio_core",
    "bluray_model",
    "cpu_core",
    "demux_core",
    "display_core",
    "dual_dtv_model",
    "enhancer_core",
    "format_converter_core",
    "get_app_model",
    "graphics_core",
    "gss_router_order",
    "h264_codec_core",
    "mpeg2_codec_core",
    "place",
    "pvr_core",
    "single_dtv_model",
]
