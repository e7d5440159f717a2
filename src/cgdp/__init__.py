"""Causality-guided diffusion policy laboratory.

A numpy implementation of the full pipeline: causal structure discovery,
masked Gaussian dynamics, guided diffusion action sampling, double-Q
training, synthetic environments, and executable checks of the
supporting theory.
"""

from .config import RunConfig, dump_config, load_config, parse_config
from .diffusion import (DiffusionSchedule, NoiseNet, ddim_sample, ddim_vjp,
                        ddpm_sample, forward_corrupt, load_noise_net,
                        make_schedule, save_noise_net, train_noise_net)
from .discovery import (DiscoveryResult, NotearsConfig, acyclicity,
                        corrupt_masks, discover_masks, notears_fit)
from .dynamics import (CausalDynamics, do_intervention_joint_grad,
                       fit_dynamics, joint_grad_jacobian, load_dynamics,
                       save_dynamics)
from .envs import EnvSpec, EnvState, Environment, make_env_scm, \
    optimal_reward
from .guidance import (GuidanceConfig, GuidanceHook, KlAccumulator,
                       LipschitzBundle, estimate_lipschitz,
                       euler_maruyama_guided, guided_noise,
                       stability_max_step)
from .numerics import AdamState, Mlp, mat_expm
from .rl import (CriticPair, OfflineArtifacts, ReplayBuffer,
                 TrainerConfig, critic_update, offline_stage,
                 online_stage, policy_update)
from .scm import (CausalMasks, GroundTruthScm, Transitions,
                  generate_dataset, load_dataset, random_scm, save_dataset,
                  scm_step)
from .verify import (PosteriorSpec, check_lemma1, check_prop1,
                     check_prop2, check_theorem1, gaussian_posterior)

__version__ = "0.1.0"
