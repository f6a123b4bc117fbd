from .model import (
    Batch,
    Model,
    ModelConfig,
    forward,
    init_model,
    load_checkpoint,
    loss_and_grads,
    loss_positions_of,
    model_fingerprint,
    param_shapes,
    param_views,
    save_checkpoint,
)
from .training import (
    TrainHyper,
    Trainer,
    extract_epoch,
    total_update_steps,
    warmup_lr,
)

