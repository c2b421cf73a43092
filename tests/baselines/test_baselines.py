"""Unit tests for the comparator modalities."""

import pytest

from repro.baselines.profiles import MODALITY_PROFILES
from repro.baselines.videoconf import VideoConferencePlatform


def test_profiles_cover_the_four_modalities():
    assert set(MODALITY_PROFILES) == {
        "video_conference", "ar_classroom", "vr_remote", "blended_metaverse"
    }


def test_profiles_match_papers_qualitative_claims():
    videoconf = MODALITY_PROFILES["video_conference"]
    ar = MODALITY_PROFILES["ar_classroom"]
    vr = MODALITY_PROFILES["vr_remote"]
    blended = MODALITY_PROFILES["blended_metaverse"]
    # "Zoom enables synchronous teaching but lacks motivation and engagement"
    assert videoconf.remote_access and videoconf.immersion < 0.3
    # "current VR/AR education allows 3D visualization but fails to provide
    # remote access" (AR case)
    assert not ar.remote_access and ar.physical_copresence
    # VR: immersive and remote, but no physical co-presence.
    assert vr.remote_access and not vr.physical_copresence
    # The blended classroom uniquely offers both.
    assert blended.remote_access and blended.physical_copresence
    assert blended.interactivity == max(
        p.interactivity for p in MODALITY_PROFILES.values()
    )


def test_videoconf_tiles_degrade_with_class_size():
    platform = VideoConferencePlatform()
    small = platform.tile_quality(5)
    big = platform.tile_quality(40)
    assert big < small
    assert platform.visible_tiles(40) == platform.max_tiles
    assert platform.visible_tiles(2) == 1


def test_videoconf_latency_and_validation():
    platform = VideoConferencePlatform()
    with pytest.raises(ValueError):
        platform.visible_tiles(0)
    with pytest.raises(ValueError):
        VideoConferencePlatform(uplink_bps=0)
