package jobs

import org.apache.spark.sql.SparkSession
import repro.harness.{Experiments, ExpResult, SparkMaster, Taxonomy}

/** Shared spark-submit plumbing for the per-figure jobs.
  *
  * Usage: spark-submit --class jobs.<Name> repro.jar [scale] [seeds]
  * Full ρ sweep 0.1…0.9 (step 0.1) as in §3.2; default scale 1.0, 3 seeds.
  */
object JobMain {
  val fullRhos: Seq[Double] = (1 to 9).map(_ / 10.0)

  def run(args: Array[String])(body: (SparkSession, Experiments.Config) => Seq[ExpResult]): Unit = {
    val spark = SparkMaster.session("sparsification-repro")
    val scale = args.headOption.map(_.toDouble).getOrElse(1.0)
    val seeds = args.drop(1).headOption.map(_.toInt).getOrElse(3)
    val cfg = Experiments.Config(scale = scale, rhos = fullRhos, seeds = seeds)
    body(spark, cfg).foreach(r => println(r.render))
    spark.stop()
  }
}

/** Tables 1–3 (taxonomies + dataset inventory). */
object TaxonomyJob {
  def main(args: Array[String]): Unit = JobMain.run(args) { (spark, cfg) =>
    println(Taxonomy.table1); println(Taxonomy.table2)
    println(Taxonomy.table3(spark, cfg.scale))
    Seq.empty
  }
}

/** Fig 1a/1b: connectivity. */
object ConnectivityJob {
  def main(args: Array[String]): Unit = JobMain.run(args)(Experiments.connectivity)
}

/** Fig 2: degree distribution. */
object DegreeDistJob {
  def main(args: Array[String]): Unit = JobMain.run(args)(Experiments.degreeDistribution)
}

/** Fig 3: Laplacian quadratic form. */
object QuadraticFormJob {
  def main(args: Array[String]): Unit = JobMain.run(args)(Experiments.quadraticForm)
}

/** Fig 4a/4b/4c: distance metrics. */
object DistanceJob {
  def main(args: Array[String]): Unit = JobMain.run(args) { (s, c) =>
    Experiments.distanceStretch(s, c) ++ Experiments.diameter(s, c)
  }
}

/** Fig 5a/5b/6/7: centrality metrics. */
object CentralityJob {
  def main(args: Array[String]): Unit = JobMain.run(args) { (s, c) =>
    Experiments.betweennessCloseness(s, c) ++
      Experiments.eigenvectorCentrality(s, c) ++ Experiments.katzCentrality(s, c)
  }
}

/** Fig 8/9/10: clustering metrics. */
object ClusteringJob {
  def main(args: Array[String]): Unit = JobMain.run(args) { (s, c) =>
    Experiments.communities(s, c) ++ Experiments.clusteringCoefficients(s, c) ++
      Experiments.clusteringF1(s, c)
  }
}

/** Fig 11a/11b: PageRank. */
object PageRankJob {
  def main(args: Array[String]): Unit = JobMain.run(args)(Experiments.pageRank)
}

/** Fig 12: min-cut/max-flow. */
object MaxFlowJob {
  def main(args: Array[String]): Unit = JobMain.run(args)(Experiments.maxFlow)
}

/** Fig 13a/13b: GNNs. */
object GnnJob {
  def main(args: Array[String]): Unit = JobMain.run(args)(Experiments.gnn)
}

/** Fig 14: sparsification time. */
object TimingJob {
  def main(args: Array[String]): Unit = JobMain.run(args) { (s, c) => Seq(Experiments.timing(s, c)) }
}
