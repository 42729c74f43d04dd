package jobs

import org.apache.spark.sql.SparkSession
import repro.harness.{Experiments, ExpResult, SparkMaster, Taxonomy}

/** Shared spark-submit plumbing: the trailing `[scale] [seeds]` arguments
  * and the session. Full ρ sweep 0.1…0.9 (step 0.1) as in §3.2; default
  * scale 1.0, 3 seeds.
  */
object JobMain {
  val fullRhos: Seq[Double] = (1 to 9).map(_ / 10.0)

  def config(args: Seq[String]): Experiments.Config = Experiments.Config(
    scale = args.headOption.map(_.toDouble).getOrElse(1.0),
    rhos = fullRhos,
    seeds = args.drop(1).headOption.map(_.toInt).getOrElse(3))

  def run(body: SparkSession => Unit): Unit = {
    val spark = SparkMaster.session("sparsification-repro")
    try body(spark) finally spark.stop()
  }
}

/** Paper figures by id.
  *
  * Usage: spark-submit --class jobs.FigureJob repro.jar <id>[,<id>…] [scale] [seeds]
  * where each id is one of [[Experiments.ids]] (1, 2, 3, 4ab, 4c, 5, …, 14).
  */
object FigureJob {
  /** The tables `args` ask for. Every id is checked before any figure runs. */
  def results(spark: SparkSession, args: Array[String]): Seq[ExpResult] = {
    require(args.nonEmpty,
      s"usage: FigureJob <id>[,<id>…] [scale] [seeds]; ids: ${Experiments.ids.mkString(" ")}")
    val ids = args(0).split(",").toSeq
    ids.foreach(Experiments.requireId)
    val cfg = JobMain.config(args.toSeq.drop(1))
    ids.flatMap(Experiments.results(spark, _, cfg))
  }

  def main(args: Array[String]): Unit = JobMain.run(spark => results(spark, args).foreach(r => println(r.render)))
}

/** Tables 1–3 (taxonomies + dataset inventory). Usage: `[scale]`. */
object TaxonomyJob {
  def main(args: Array[String]): Unit = JobMain.run { spark =>
    println(Taxonomy.table1); println(Taxonomy.table2)
    println(Taxonomy.table3(spark, JobMain.config(args.toSeq).scale))
  }
}
