// Program-written inputs shared by the workloads, and the checkpoint
// writer run once per checkout (kgebench prepare).
#include <cstdio>
#include <fstream>
#include <thread>

#include "kge.h"
#include "workloads.h"

namespace kgebench {

int LoadThreads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return int(cores == 0 ? 1 : std::min(cores, 4u));
}

std::string DatasetDir(const RunArgs& args) {
  const int32_t entities = args.smoke ? 3000 : kWn18Entities;
  return args.inputs_dir + "/wordnet_" + std::to_string(entities) + "_seed" +
         std::to_string(args.seed);
}

std::string CheckpointPath(const RunArgs& args, const std::string& scale) {
  return args.inputs_dir + "/quaternion_" + scale + ".kge";
}

bool ReadCheckpointShape(const std::string& checkpoint, int32_t* entities,
                         int32_t* relations) {
  std::ifstream in(checkpoint + ".shape");
  return bool(in >> *entities >> *relations);
}

int PrepareCheckpoint(const RunArgs& args, const std::string& scale) {
  int32_t entities = 0;
  if (!kge::ParseWordNetScale(scale, &entities)) {
    std::fprintf(stderr, "unknown scale %s\n", scale.c_str());
    return 2;
  }
  // The same vocabulary kge_serve --scale=<scale> --seed=<seed> derives.
  kge::WordNetLikeOptions options;
  options.num_entities = entities;
  options.seed = kCheckpointSeed;
  int32_t num_entities = 0;
  int32_t num_relations = 0;
  {
    const kge::Dataset data = kge::GenerateWordNetLike(options);
    num_entities = data.num_entities();
    num_relations = data.num_relations();
  }
  kge::Result<std::unique_ptr<kge::KgeModel>> model = kge::MakeModelByName(
      kModelName, num_entities, num_relations, kDimBudget, kCheckpointSeed);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  const std::string path = CheckpointPath(args, scale);
  const std::string temp = path + ".tmp";
  const kge::Status saved = kge::SaveModelCheckpoint(**model, temp);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  {
    std::ofstream shape(path + ".shape");
    shape << num_entities << ' ' << num_relations << '\n';
    if (!shape) return 1;
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) return 1;
  std::fprintf(stderr, "wrote %s (%d entities, %d relations)\n", path.c_str(),
               num_entities, num_relations);
  return 0;
}

}  // namespace kgebench
