from .model import (
    Batch,
    Model,
    ModelConfig,
    forward,
    init_model,
    load_checkpoint,
    loss_and_grads,
    model_fingerprint,
    param_shapes,
    param_views,
    save_checkpoint,
)
from .training import (
    TrainHyper,
    Trainer,
    frozen_gradients,
    total_update_steps,
    warmup_lr,
)

