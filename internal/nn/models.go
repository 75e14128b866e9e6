package nn

import (
	"fmt"

	"pactrain/internal/tensor"
)

// The evaluation in the paper trains VGG19, ResNet18, ResNet152 and
// ViT-Base-16 on CIFAR-10/100. Training models of that size in a pure-Go
// substrate is infeasible, so the zoo is two-tier (see DESIGN.md §1):
//
//   - Lite twins: real trainable networks with the same architectural shape
//     (VGG-style plain conv stacks, ResNet basic-block residual stages, a
//     ViT with patch embedding + transformer blocks). Convergence behaviour
//     — epochs to target accuracy under each compression scheme, pruning
//     accuracy cliffs — is measured on these.
//   - CommProfile: the full model's parameter count and per-sample FLOPs,
//     used by the DDP time model to cost computation and communication.

// CommProfile describes the communication-relevant size of a full model from
// the paper's workload set.
type CommProfile struct {
	Name string
	// Params is the number of scalar parameters (gradient elements).
	Params int64
	// FLOPsPerSample is the forward-pass FLOP count for one sample at the
	// training resolution (224×224, CIFAR upsampled, as required by
	// ViT-Base/16's patch size). Backward is costed at 2× forward.
	FLOPsPerSample int64
}

// GradBytes returns the fp32 gradient volume in bytes.
func (p CommProfile) GradBytes() int64 { return p.Params * 4 }

// Published profiles for the paper's four workloads. Parameter counts are
// the torchvision/timm ImageNet-head values; the ≤0.1% difference from a
// 10/100-class head is irrelevant to communication volume.
var (
	ProfileVGG19     = CommProfile{Name: "VGG19", Params: 143_667_240, FLOPsPerSample: 19_632_000_000}
	ProfileResNet18  = CommProfile{Name: "ResNet18", Params: 11_689_512, FLOPsPerSample: 1_824_000_000}
	ProfileResNet152 = CommProfile{Name: "ResNet152", Params: 60_192_808, FLOPsPerSample: 11_580_000_000}
	ProfileViTBase16 = CommProfile{Name: "ViT-Base-16", Params: 86_567_656, FLOPsPerSample: 17_580_000_000}
)

// ProfileByName returns the communication profile for a paper workload name.
func ProfileByName(name string) (CommProfile, error) {
	switch name {
	case "VGG19", "vgg19":
		return ProfileVGG19, nil
	case "ResNet18", "resnet18":
		return ProfileResNet18, nil
	case "ResNet152", "resnet152":
		return ProfileResNet152, nil
	case "ViT-Base-16", "vit-base-16", "vit", "ViT":
		return ProfileViTBase16, nil
	}
	return CommProfile{}, fmt.Errorf("nn: unknown model profile %q", name)
}

// Profiles lists all paper workloads in evaluation order.
func Profiles() []CommProfile {
	return []CommProfile{ProfileVGG19, ProfileResNet18, ProfileResNet152, ProfileViTBase16}
}

// LiteConfig selects the trainable twin geometry. Defaults target
// 16×16-pixel, 3-channel synthetic images.
type LiteConfig struct {
	InChannels int
	ImageSize  int
	Classes    int
	Width      int // base channel width
	Seed       uint64
}

// DefaultLiteConfig returns the geometry used across the experiment harness.
func DefaultLiteConfig(classes int, seed uint64) LiteConfig {
	return LiteConfig{InChannels: 3, ImageSize: 16, Classes: classes, Width: 8, Seed: seed}
}

// NewMLP builds a small multi-layer perceptron over flattened images; it is
// the cheapest trainable model and is used by unit tests and the
// quickstart example.
func NewMLP(cfg LiteConfig, hidden int) *Model { return newMLP(tensor.NewRNG(cfg.Seed), cfg, hidden) }

// newMLP and the other unexported builders draw every initialized weight from
// r; a nil r leaves them zero and their gradients without storage (see
// NewLiteUndrawn).
func newMLP(r *tensor.RNG, cfg LiteConfig, hidden int) *Model {
	in := cfg.InChannels * cfg.ImageSize * cfg.ImageSize
	root := NewSequential(
		NewFlatten(),
		NewLinear("fc1", r, in, hidden),
		NewReLU(),
		NewLinear("fc2", r, hidden, hidden),
		NewReLU(),
		NewLinear("head", r, hidden, cfg.Classes),
	)
	return NewModel("MLP", root)
}

// NewVGGLite builds a VGG-shaped plain convolutional stack: conv-BN-ReLU
// pairs with max-pool downsampling and a small fully connected classifier.
// Like VGG19, it has no skip connections and a classifier-heavy tail.
func NewVGGLite(cfg LiteConfig) *Model { return newVGGLite(tensor.NewRNG(cfg.Seed), cfg) }

func newVGGLite(r *tensor.RNG, cfg LiteConfig) *Model {
	w := cfg.Width
	var layers []Layer
	in := cfg.InChannels
	size := cfg.ImageSize
	for stage, ch := range []int{w, 2 * w, 4 * w} {
		p := fmt.Sprintf("features.%d", stage)
		layers = append(layers,
			NewConv2D(p+".0", r, in, ch, 3, 1, 1),
			NewBatchNorm2D(p+".1", ch),
			NewReLU(),
			NewConv2D(p+".2", r, ch, ch, 3, 1, 1),
			NewBatchNorm2D(p+".3", ch),
			NewReLU(),
			NewMaxPool2D(2, 2),
		)
		in = ch
		size /= 2
	}
	flat := in * size * size
	layers = append(layers,
		NewFlatten(),
		NewLinear("classifier.0", r, flat, 4*w),
		NewReLU(),
		NewLinear("classifier.1", r, 4*w, cfg.Classes),
	)
	return NewModel("VGG19", NewSequential(layers...))
}

// basicBlock returns a ResNet basic block (two 3×3 convs with batch norm)
// with an optional 1×1 downsampling shortcut.
func basicBlock(name string, r *tensor.RNG, in, out, stride int) Layer {
	body := NewSequential(
		NewConv2D(name+".conv1", r, in, out, 3, stride, 1),
		NewBatchNorm2D(name+".bn1", out),
		NewReLU(),
		NewConv2D(name+".conv2", r, out, out, 3, 1, 1),
		NewBatchNorm2D(name+".bn2", out),
	)
	var shortcut Layer
	if stride != 1 || in != out {
		shortcut = NewSequential(
			NewConv2D(name+".down.conv", r, in, out, 1, stride, 0),
			NewBatchNorm2D(name+".down.bn", out),
		)
	}
	return NewResidual(body, shortcut)
}

// newResNetLite builds a ResNet-shaped residual network with the given
// number of basic blocks per stage. blocks {2,2} with DefaultLiteConfig is
// the ResNet18 twin; {3,4} the (deeper, slower-converging) ResNet152 twin.
func newResNetLite(r *tensor.RNG, name string, cfg LiteConfig, blocks []int) *Model {
	w := cfg.Width
	layers := []Layer{
		NewConv2D("stem.conv", r, cfg.InChannels, w, 3, 1, 1),
		NewBatchNorm2D("stem.bn", w),
		NewReLU(),
	}
	in := w
	for stage, n := range blocks {
		out := w << stage
		for b := 0; b < n; b++ {
			stride := 1
			if b == 0 && stage > 0 {
				stride = 2
			}
			layers = append(layers, basicBlock(fmt.Sprintf("layer%d.%d", stage+1, b), r, in, out, stride))
			in = out
		}
	}
	layers = append(layers,
		NewGlobalAvgPool2D(),
		NewLinear("fc", r, in, cfg.Classes),
	)
	return NewModel(name, NewSequential(layers...))
}

// NewResNet18Lite is the ResNet18 twin.
func NewResNet18Lite(cfg LiteConfig) *Model {
	return newResNetLite(tensor.NewRNG(cfg.Seed), "ResNet18", cfg, []int{2, 2})
}

// NewResNet152Lite is the ResNet152 twin: deeper stages so that, like the
// real model, it converges more slowly per epoch than the 18-layer variant.
func NewResNet152Lite(cfg LiteConfig) *Model {
	return newResNetLite(tensor.NewRNG(cfg.Seed), "ResNet152", cfg, []int{3, 4})
}

// NewViTLite builds the ViT-Base-16 twin: patch embedding, transformer
// encoder blocks with multi-head attention, class-token pooling and a
// linear head.
func NewViTLite(cfg LiteConfig, dim, heads, depth int) *Model {
	return newViTLite(tensor.NewRNG(cfg.Seed), cfg, dim, heads, depth)
}

func newViTLite(r *tensor.RNG, cfg LiteConfig, dim, heads, depth int) *Model {
	layers := []Layer{
		NewPatchEmbed("embed", r, cfg.InChannels, cfg.ImageSize, cfg.ImageSize, 4, dim),
	}
	for i := 0; i < depth; i++ {
		layers = append(layers, NewTransformerBlock(fmt.Sprintf("blocks.%d", i), r, dim, heads, 2))
	}
	layers = append(layers,
		NewLayerNorm("norm", dim),
		NewTokenPool(),
		NewLinear("head", r, dim, cfg.Classes),
	)
	return NewModel("ViT-Base-16", NewSequential(layers...))
}

// NewLiteByName builds the lite twin matching a paper workload name, its
// weights drawn from cfg.Seed.
func NewLiteByName(name string, cfg LiteConfig) (*Model, error) {
	return newLite(tensor.NewRNG(cfg.Seed), name, cfg)
}

// NewLiteUndrawn builds the same layer tree as NewLiteByName without drawing
// from any generator: every randomly initialized weight is zero, and those
// weights' gradients have no storage (ddp.BuildBuckets binds them to bucket
// views; only the norms' small gradients are allocated). It is the shell a
// drawn model's state is copied into (CopyStateFrom), which is cheaper than
// drawing the same weights again.
func NewLiteUndrawn(name string, cfg LiteConfig) (*Model, error) {
	return newLite(nil, name, cfg)
}

func newLite(r *tensor.RNG, name string, cfg LiteConfig) (*Model, error) {
	switch name {
	case "VGG19", "vgg19":
		return newVGGLite(r, cfg), nil
	case "ResNet18", "resnet18":
		return newResNetLite(r, "ResNet18", cfg, []int{2, 2}), nil
	case "ResNet152", "resnet152":
		return newResNetLite(r, "ResNet152", cfg, []int{3, 4}), nil
	case "ViT-Base-16", "vit-base-16", "vit", "ViT":
		// Embedding width scales with the config width (dim = 4·Width) so
		// the ViT twin gains overcapacity alongside the conv twins.
		return newViTLite(r, cfg, 4*cfg.Width, 4, 2), nil
	case "MLP", "mlp":
		return newMLP(r, cfg, 64), nil
	}
	return nil, fmt.Errorf("nn: unknown lite model %q", name)
}
