"""Configuration objects: validation, presets, derived quantities."""

import dataclasses

import pytest

from repro.config import (
    DataIntegrityConfig,
    ExperimentConfig,
    ImageConfig,
    ModelConfig,
    OpticalConfig,
    RegistryConfig,
    ResistConfig,
    TechnologyConfig,
    TrainingConfig,
    N10,
    N7,
    paper_n10,
    paper_n7,
    reduced,
    tiny,
)
from repro.errors import ConfigError


class TestOpticalConfig:
    def test_defaults_valid(self):
        OpticalConfig()

    def test_rejects_negative_wavelength(self):
        with pytest.raises(ConfigError):
            OpticalConfig(wavelength_nm=-1.0)

    def test_rejects_inverted_annulus(self):
        with pytest.raises(ConfigError):
            OpticalConfig(sigma_inner=0.9, sigma_outer=0.6)

    def test_rejects_sigma_outer_above_one(self):
        with pytest.raises(ConfigError):
            OpticalConfig(sigma_outer=1.5)

    def test_rejects_zero_kernels(self):
        with pytest.raises(ConfigError):
            OpticalConfig(num_kernels=0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigError):
            OpticalConfig(grid_size=4)


class TestResistConfig:
    def test_defaults_valid(self):
        ResistConfig()

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_threshold(self, threshold):
        with pytest.raises(ConfigError):
            ResistConfig(base_threshold=threshold)

    def test_rejects_negative_diffusion(self):
        with pytest.raises(ConfigError):
            ResistConfig(diffusion_length_nm=-1.0)


class TestTechnologyConfig:
    def test_n10_n7_shapes(self):
        assert N10.num_clips == 982
        assert N7.num_clips == 979
        assert N10.contact_size_nm == N7.contact_size_nm == 60.0
        assert N7.pitch_nm < N10.pitch_nm

    def test_half_pitch(self):
        assert N10.half_pitch_nm == pytest.approx(N10.pitch_nm / 2)

    def test_rejects_pitch_below_contact(self):
        with pytest.raises(ConfigError):
            TechnologyConfig(
                name="bad", contact_size_nm=60, pitch_nm=50, num_clips=10
            )

    def test_rejects_crop_larger_than_clip(self):
        with pytest.raises(ConfigError):
            TechnologyConfig(
                name="bad", contact_size_nm=60, pitch_nm=120, num_clips=10,
                clip_size_nm=1000, cropped_clip_nm=2000,
            )

    def test_rejects_window_smaller_than_contact(self):
        with pytest.raises(ConfigError):
            TechnologyConfig(
                name="bad", contact_size_nm=60, pitch_nm=120, num_clips=10,
                resist_window_nm=50,
            )

    def test_rejects_negative_registration(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(N10, registration_sigma_nm=-1.0)


class TestImageConfig:
    def test_nm_per_px_matches_paper(self):
        """Paper: 128 nm window at 256 px => ~0.5 nm/px (Section 3.1)."""
        image = ImageConfig()
        assert image.resist_nm_per_px(N10) == pytest.approx(0.5)
        assert image.mask_nm_per_px(N10) == pytest.approx(1000 / 256)

    @pytest.mark.parametrize("px", [7, 12, 100])
    def test_rejects_non_power_of_two(self, px):
        with pytest.raises(ConfigError):
            ImageConfig(mask_image_px=px)


class TestModelConfig:
    def test_paper_encoder_widths(self):
        """Table 1 encoder: 64,128,256,512,512,512,512,512."""
        model = ModelConfig()
        assert model.encoder_widths() == (64, 128, 256, 512, 512, 512, 512, 512)

    def test_paper_decoder_widths(self):
        """Table 1 decoder (before the output layer): 512x4, 256, 128, 64."""
        model = ModelConfig()
        assert model.decoder_widths() == (512, 512, 512, 512, 256, 128, 64)

    def test_num_downsamples(self):
        assert ModelConfig().num_downsamples == 8
        assert ModelConfig(image_size=64, base_filters=16).num_downsamples == 6

    def test_rejects_bad_image_size(self):
        with pytest.raises(ConfigError):
            ModelConfig(image_size=100)


class TestTrainingConfig:
    def test_paper_hyperparameters(self):
        """Section 4: batch 4, 80 epochs, lambda 100, Adam(2e-4, 0.5, 0.999)."""
        training = TrainingConfig()
        assert training.batch_size == 4
        assert training.epochs == 80
        assert training.lambda_l1 == 100.0
        assert training.learning_rate == pytest.approx(2e-4)
        assert (training.adam_beta1, training.adam_beta2) == (0.5, 0.999)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            TrainingConfig(train_fraction=1.5)

    def test_rejects_zero_epochs(self):
        with pytest.raises(ConfigError):
            TrainingConfig(epochs=0)


class TestDataIntegrityConfig:
    def test_defaults_valid(self):
        config = DataIntegrityConfig()
        assert config.center_tolerance_px == 1.0
        assert config.min_salvaged_records == 2

    def test_rejects_non_positive_tolerance(self):
        with pytest.raises(ConfigError):
            DataIntegrityConfig(center_tolerance_px=0.0)

    def test_rejects_empty_salvage_floor(self):
        with pytest.raises(ConfigError):
            DataIntegrityConfig(min_salvaged_records=0)

    def test_experiment_config_carries_data_integrity(self):
        config = reduced()
        assert isinstance(config.data, DataIntegrityConfig)
        custom = config.replace(
            data=DataIntegrityConfig(min_salvaged_records=5))
        assert custom.data.min_salvaged_records == 5


class TestRegistryConfig:
    def test_defaults_valid(self):
        config = RegistryConfig()
        assert config.root is None
        assert 0.0 < config.canary_fraction <= 1.0
        assert 1 <= config.min_samples <= config.window

    def test_rejects_bad_canary_fraction(self):
        with pytest.raises(ConfigError):
            RegistryConfig(canary_fraction=0.0)
        with pytest.raises(ConfigError):
            RegistryConfig(canary_fraction=1.5)

    def test_rejects_bad_window_shape(self):
        with pytest.raises(ConfigError):
            RegistryConfig(window=0)
        with pytest.raises(ConfigError):
            RegistryConfig(window=8, min_samples=9)
        with pytest.raises(ConfigError):
            RegistryConfig(min_samples=0)

    def test_rejects_bad_rollback_margin(self):
        with pytest.raises(ConfigError):
            RegistryConfig(rollback_margin=1.0)
        with pytest.raises(ConfigError):
            RegistryConfig(rollback_margin=-0.1)

    def test_experiment_config_carries_registry(self):
        config = reduced()
        assert isinstance(config.registry, RegistryConfig)
        custom = config.replace(
            registry=RegistryConfig(root="models/", canary_fraction=0.25))
        assert custom.registry.root == "models/"


class TestPresets:
    def test_paper_presets_construct(self):
        for config in (paper_n10(), paper_n7()):
            assert config.model.image_size == 256
            assert config.model.base_filters == 64
            assert config.training.epochs == 80

    def test_paper_clip_counts(self):
        assert paper_n10().tech.num_clips == 982
        assert paper_n7().tech.num_clips == 979

    def test_reduced_is_consistent(self):
        config = reduced()
        assert config.model.image_size == config.image.mask_image_px

    def test_tiny_is_fast(self):
        config = tiny()
        assert config.model.image_size <= 32
        assert config.tech.num_clips <= 16

    def test_snapshot_epochs_respect_total(self):
        config = reduced(epochs=10)
        assert all(e <= 10 for e in config.training.snapshot_epochs)

    def test_mismatched_model_and_image_rejected(self):
        config = reduced()
        with pytest.raises(ConfigError):
            config.replace(model=ModelConfig(image_size=128, base_filters=8))

    def test_replace_returns_new_config(self):
        config = reduced()
        other = config.replace(tech=N7)
        assert other.tech.name == "N7"
        assert config.tech.name == "N10"
        assert isinstance(other, ExperimentConfig)
